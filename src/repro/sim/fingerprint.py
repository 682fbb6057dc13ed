"""Run fingerprints: stable hashes that pin simulator determinism down.

A *run fingerprint* is a SHA-256 digest over everything a deterministic
simulation is supposed to reproduce bit-for-bit given the same seed:

* the ordered :class:`~repro.sim.trace.TraceRecord` stream,
* the final per-request metrics (timestamps, token counts, swap/migration
  counters),
* the registry of named RNG streams touched while generating the workload,
* the simulator's terminal state (clock, events processed).

Two runs of the same scenario must produce identical fingerprints; a
scheduler regression — a flipped tie-break, a new RNG draw, a reordered
event — changes the digest and is caught by the golden-trace check
(:mod:`repro.harness.golden`) instead of surfacing as a mysteriously
shifted benchmark number.

Hashing is canonical-JSON based: dict keys are sorted and floats use
``repr`` round-tripping (shortest exact decimal), so the digest depends
only on values, never on dict insertion order or formatting.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.sim.trace import TraceRecord

FINGERPRINT_VERSION = 1


def canonical_json(value: Any) -> str:
    """Canonical JSON text: sorted keys, no whitespace, exact float reprs.

    The bytes are ``json.dumps(..., sort_keys=True, separators=(",", ":"))``
    of the value with mapping keys passed through ``str``, tuples as lists,
    numpy scalars as their Python value and enums as their ``.value``.
    Anything else raises :class:`UnencodableValue`, never hashes a ``repr``.
    """
    try:
        return _encode(value)
    except UnencodableValue as exc:
        where = "".join(f"[{key!r}]" for key in _path(value)) or "the top level"
        raise UnencodableValue(f"cannot canonically encode {exc} at {where}") from None


class UnencodableValue(TypeError):
    """A value with no canonical JSON form."""


def _path(value: Any) -> list:
    """Key path to the first part of ``value`` with no canonical form."""
    if isinstance(value, Mapping):
        items: Iterable = sorted({str(k): v for k, v in value.items()}.items())
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    else:
        return []
    for key, item in items:
        try:
            _encode(item)
        except UnencodableValue:
            return [key, *_path(item)]
    return []


_SPECIAL_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode_float(value: float) -> str:
    text = float.__repr__(value)
    return _SPECIAL_FLOATS.get(text, text)


def _encode_dict(value: Mapping) -> str:
    if not set(map(type, value)) <= _STR_ONLY:
        value = {str(k): v for k, v in value.items()}
    return "{" + ",".join([_quote(k) + ":" + _encode(value[k]) for k in sorted(value)]) + "}"


def _encode_list(value: Any) -> str:
    return "[" + ",".join([_encode(v) for v in value]) + "]"


def _encode_other(value: Any) -> str:
    """Subclasses of the plain types, numpy scalars and enums."""
    if isinstance(value, Mapping):
        return _encode_dict(value)
    if isinstance(value, (list, tuple)):
        return _encode_list(value)
    if isinstance(value, float):
        return _encode_float(float(value))
    if isinstance(value, int):
        return int.__repr__(int(value))
    if isinstance(value, str):
        return _quote(value)
    if hasattr(value, "item"):  # numpy scalar
        return _encode(value.item())
    if hasattr(value, "value") and not callable(value.value):  # enums
        return _encode(value.value)
    raise UnencodableValue(type(value).__name__)


_quote = json.encoder.encode_basestring_ascii
_STR_ONLY = {str}
#: Exact type -> encoder; everything else goes through :func:`_encode_other`.
_ENCODERS: dict[type, Callable[[Any], str]] = {
    str: _quote,
    int: int.__repr__,
    float: _encode_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    dict: _encode_dict,
    list: _encode_list,
    tuple: _encode_list,
}
_lookup = _ENCODERS.get


def _encode(value: Any) -> str:
    return _lookup(type(value), _encode_other)(value)


def digest_lines(chunks: Iterable[str]) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


# -- component digests --------------------------------------------------------


def raw_row(time: float, component: str, tag: str, payload: Mapping) -> dict:
    """Canonical dict form of one trace row (also the golden JSONL schema)."""
    return {"t": time, "c": component, "g": tag, "p": json.loads(canonical_json(payload))}


def raw_row_json(time: float, component: str, tag: str, payload: Mapping) -> str:
    """Canonical JSON of one raw trace tuple, rendered in one call.

    The reference bytes of a trace row: :func:`row_renderer`, which
    ``TraceLog.fingerprint`` hashes through, must match them.  The keys
    of the row dict sort as ``c < g < p < t``, so the concatenation
    below is byte-identical to ``canonical_json(raw_row(...))`` (a
    property the fingerprint tests pin down).
    """
    return (
        '{"c":'
        + _encode(component)
        + ',"g":'
        + _encode(tag)
        + ',"p":'
        + canonical_json(payload)
        + ',"t":'
        + _encode(time)
        + "}"
    )


def row_renderer(head: tuple) -> Callable[[float, Sequence, int], str]:
    """Renderer of the trace rows sharing one head ``(component, tag, *keys)``.

    ``render(time, values, start)`` returns ``raw_row_json(time, component,
    tag, payload)`` for the payload whose values sit at ``values[start:]``
    in key order.  The fixed fragments and the sorted key order are built
    once per head, so a row costs no dict and no key sort.
    """
    component, tag, *keys = head
    prefix = '{"c":' + _encode(component) + ',"g":' + _encode(tag) + ',"p":{'
    fields = [(i, _quote(key) + ":") for key, i in sorted((k, i) for i, k in enumerate(keys))]

    def render(time: float, values: Sequence, start: int) -> str:
        try:
            body = ",".join([key + _encode(values[start + i]) for i, key in fields])
        except UnencodableValue:  # re-raise naming the offending key
            canonical_json(dict(zip(keys, values[start : start + len(keys)])))
            raise
        return prefix + body + '},"t":' + _encode_float(time) + "}"

    return render


def record_row(record: "TraceRecord") -> dict:
    """Canonical dict form of a :class:`TraceRecord`."""
    return raw_row(record.time, record.component, record.tag, record.payload)


def fingerprint_records(records: Any) -> str:
    """Digest of an ordered trace stream.

    Accepts either an iterable of :class:`TraceRecord` rows or a
    :class:`~repro.sim.trace.TraceLog`; a log hashes itself straight from
    its columns (:meth:`~repro.sim.trace.TraceLog.fingerprint`), skipping
    both ``TraceRecord`` materialisation and the per-row dict.
    """
    fingerprint = getattr(records, "fingerprint", None)
    if fingerprint is not None:
        return fingerprint()
    return digest_lines(canonical_json(record_row(r)) for r in records)


# Mirrors repro.serving.request.DEFAULT_TIER; kept literal so the sim layer
# stays import-free of the serving layer.  Rows only carry a tier key when
# the request's tier differs — tier-free fingerprints are unchanged.
_DEFAULT_TIER = "standard"

# Mirrors repro.serving.request.DEFAULT_TENANT (same layering rationale).
# Rows only carry a tenant key when the request's tenant differs —
# tenant-free fingerprints are unchanged.
_DEFAULT_TENANT = "default"


def request_row(request: Any) -> dict:
    """Final per-request metrics row (duck-typed over ``Request``)."""
    row = {
        "id": request.request_id,
        "prompt": request.prompt_tokens,
        "output": request.output_tokens,
        "arrival": request.arrival_time,
        "prefill_start": request.prefill_start,
        "first_token": request.first_token_time,
        "decode_start": request.decode_start,
        "finish": request.finish_time,
        "generated": request.output_generated,
        "swaps": request.swap_out_count,
        "migrations": request.migration_count,
        "recomputes": request.recompute_count,
        "dispatched": request.dispatched_prefill,
    }
    tier = getattr(request, "tier", _DEFAULT_TIER)
    if tier != _DEFAULT_TIER:
        row["tier"] = tier
    # Shared-prefix identity appears only when set, so prefix-free runs
    # keep their pre-prefix digests.
    prefix_len = getattr(request, "prefix_len", 0)
    if prefix_len:
        row["prefix_hash"] = getattr(request, "prefix_hash", 0)
        row["prefix_len"] = prefix_len
    tenant = getattr(request, "tenant", _DEFAULT_TENANT)
    if tenant != _DEFAULT_TENANT:
        row["tenant"] = tenant
    return row


def fingerprint_requests(requests: Iterable[Any]) -> str:
    """Digest of final per-request metrics, ordered by request id.

    Each row is rendered and hashed as it is built, so no list of rows
    is ever held.
    """
    ordered = sorted(requests, key=attrgetter("request_id"))
    return digest_lines(canonical_json(request_row(r)) for r in ordered)


def fingerprint_rng(registry: Iterable[str]) -> str:
    """Digest of the named-RNG-stream registry (first-touch order matters)."""
    return digest_lines(iter(registry))


# -- the combined fingerprint --------------------------------------------------


@dataclass(frozen=True)
class RunFingerprint:
    """Composite fingerprint of one simulation run.

    The component hashes are kept separate so a mismatch can be localised
    (trace stream vs request metrics vs RNG discipline) before diffing
    individual events.
    """

    trace_hash: str
    requests_hash: str
    rng_hash: str
    events_processed: int = 0
    horizon: float = 0.0
    version: int = FINGERPRINT_VERSION
    # Non-baseline scheduling-policy choices, as sorted (kind, name) pairs.
    # Baseline policies are omitted entirely so fingerprints recorded before
    # the policy layer existed keep their exact digests.
    policies: tuple[tuple[str, str], ...] = ()

    @property
    def value(self) -> str:
        """The single combined digest used by golden comparisons."""
        return digest_lines([canonical_json(self.as_dict())])

    def as_dict(self) -> dict:
        out = {
            "version": self.version,
            "trace": self.trace_hash,
            "requests": self.requests_hash,
            "rng": self.rng_hash,
            "events_processed": self.events_processed,
            "horizon": self.horizon,
        }
        if self.policies:
            out["policies"] = {kind: name for kind, name in self.policies}
        return out

    def explain_mismatch(self, other: "RunFingerprint") -> list[str]:
        """Name the components in which ``other`` diverges from ``self``."""
        diffs = []
        if self.trace_hash != other.trace_hash:
            diffs.append("trace stream")
        if self.requests_hash != other.requests_hash:
            diffs.append("per-request metrics")
        if self.rng_hash != other.rng_hash:
            diffs.append("RNG stream registry")
        if self.events_processed != other.events_processed:
            diffs.append(
                f"events processed ({self.events_processed} vs {other.events_processed})"
            )
        if self.horizon != other.horizon:
            diffs.append(f"horizon ({self.horizon!r} vs {other.horizon!r})")
        if self.policies != other.policies:
            diffs.append(f"policy identity ({self.policies} vs {other.policies})")
        return diffs


def fingerprint_run(
    records: Any,
    requests: Iterable[Any],
    rng_registry: Iterable[str] = (),
    events_processed: int = 0,
    horizon: float = 0.0,
    policies: tuple[tuple[str, str], ...] = (),
) -> RunFingerprint:
    """Build the composite fingerprint from a run's raw artefacts.

    ``records`` may be a :class:`~repro.sim.trace.TraceLog` (preferred —
    hashes straight from its columns) or any iterable of trace records.
    """
    return RunFingerprint(
        trace_hash=fingerprint_records(records),
        requests_hash=fingerprint_requests(requests),
        rng_hash=fingerprint_rng(rng_registry),
        events_processed=events_processed,
        horizon=horizon,
        policies=policies,
    )
