"""Every CI comparison verb, pinned to the fingerprints and verdicts it had
before the comparison harnesses were collapsed into declared cells.

Each entry is a command line the CI workflow runs, the per-run fingerprint
of every labelled cell it reports, and its verdicts.  The fingerprints were
recorded from the pre-refactor harnesses; ``warm_beats_cold`` and
``replan_fired`` were assertions over those reports (warm < cold TTFT in
every prefix run, at least one member re-planned in ``crash:replan``) and
held there too.  A drift here means the declarations no longer run what
the old harnesses ran.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main

PINNED = (
    (
        'differential --seeds 0,1,2 --requests 40',
        {
            's0:windserve': 'cefc7e2fe9547f1c18f59c03bd197a92ca4bf8b56a6c45292f5293d10a22b07e',
            's0:distserve': 'ea9f6042ebe8a936b1a9e449350d7661693a08801287920b1b7fdc4acbb9fcf8',
            's0:vllm': '8f86eb2671b3a0cc9474dfbcd77860810fd59268b082dfff2e894774ecda7db8',
            's1:windserve': '95d6897914958d91d2442af5634abff42708119dd7f2bb5092078f74096bbc8a',
            's1:distserve': 'f070cba70537b4cc9aa5ad2ce73088b6874c071740c2a406bb238656a6138297',
            's1:vllm': 'a258d8d91052842049fe9127d771f18d3b8d3cfd18d50e1b3a6f5483e4b71ce1',
            's2:windserve': '50f6d0bf0b1665b48c6ef1ff09cdc9d7e961429c58bf3238cff1e14f2a9fbb60',
            's2:distserve': 'b7397953a7df1b3e631eef79686c7674a1c622d3e4bfa8f201be59dfa9b16536',
            's2:vllm': '713d01694f700aa484b0a3cefe120b7715d67eabdbb2cf624fa1be41339a4343',
        },
        {},
    ),
    (
        'chaos --smoke',
        {
            'windserve/none': '809810290f8b4839c9c46791a7cda7d3e4c61fb190ed3b9b49a6f105e193c1e1',
            'windserve/decode-crash': '6cf5be7fe91518f0889fbd4d936f9d8e21893e22c0bbcb8c613932ec2ce8f925',
        },
        {},
    ),
    (
        'chaos --fleet --smoke',
        {
            'member-crash': '1aa9a5b70f29517c9f27cd2852addecc80f3f4aac19632b063e56c67014cc6b2',
        },
        {},
    ),
    # The span layout (decode on the next node); recorded before the fleet
    # builders were merged onto one GPU ledger.
    (
        'chaos --fleet --smoke --plans nic-outage --span-nodes',
        {
            'nic-outage': '2978a3d751954af3a67f351bf5d3f5dc6146b8eea741d064649fc20bff8b722f',
        },
        {},
    ),
    (
        'chaos --fleet --smoke --tier-mix interactive=0.25,standard=0.5,best_effort=0.25',
        {
            'member-crash': '10ddb7d3b0ae34bcf6a7f2cb9f5e567b6fc8f1435a16ce474da8ddba300c5686',
        },
        {},
    ),
    (
        'chaos --fleet --smoke --router tier-aware --tier-mix interactive=0.25,standard=0.5,best_effort=0.25',
        {
            'member-crash': '0a9fb633c97d0f056aea5d13601bb210ca7d16718342f25e50311adbdc99dc35',
        },
        {},
    ),
    (
        'chaos --smoke --admission preemptive --tier-mix interactive=0.5,standard=0.2,best_effort=0.3',
        {
            'windserve/none': '839d220f39f824792b70dc10dbcf04884d2b91513e236c8e9a4564154ae91d9c',
            'windserve/decode-crash': 'b0699b4c3ca73bd84211ac467b341a7c5ca609b41918ee08d7b45462c90c0454',
        },
        {},
    ),
    (
        'prefix --smoke',
        {
            'least-loaded': '46ff832b857204dc17cb36cf4e983a91ccc081d305f08794a836ded187bb7618',
            'prefix-affinity': '565f5d9180e554208ce047b2433fc3ba02e082092447af2c98842e1d9745f5bf',
        },
        {'warm_beats_cold': True, 'affinity_beats_blind': True},
    ),
    (
        'tenants --smoke',
        {
            'baseline': '58c19ecc15f9b09a6201e29026b62b1b342c48cef433f0412931f8035d1ce48e',
            'fair-share': '69347a128d42312141b47c544595c03c7f9f96a3ad597fa6e3ae7e98e8b14322',
            'fifo': '4194c71eca28348082cc46b4d4e4e57049899d40e694ab02363d82bbbc205e23',
        },
        {'isolation_holds': True, 'fifo_violates': True, 'fairshare_beats_fifo': True},
    ),
    (
        'hetero --smoke',
        {
            'route:least-loaded': '3220223b1a47f01a93f6debfe72bcf9faae385ed781a93c185afc165aed58e0e',
            'route:predicted-ttft': 'd64f569ed814eb8d20e8ddfed88b820daf755d60cf337aaf0ebb74b0a7ff736b',
            'crash:no-replan': '7e122fb67be7815a5e43674a2ab1369f8aaa1fdf96e88d09b19b52f19f2c3940',
            'crash:replan': 'c283a5432badb79bee5e19481da1b79b279a6359d21593ab9c16fc3c69b6033e',
        },
        {'routing_wins': True, 'replan_fired': True, 'replan_recovers': True},
    ),
)


@pytest.mark.parametrize("argv, fingerprints, verdicts", PINNED, ids=[p[0] for p in PINNED])
def test_verb_reproduces_pinned_runs(argv, fingerprints, verdicts, capsys):
    assert main(argv.split() + ["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert {label: run["fingerprint"] for label, run in report["runs"].items()} == fingerprints
    for label, run in report["runs"].items():
        assert run["violations"] == [], label
    assert {name: report[name] for name in verdicts} == verdicts
    assert report["passed"] is True
