"""Decoder-only transformer architecture description.

Everything the scheduler cares about — KV bytes per token, weight bytes,
FLOPs, IO — is a function of these static fields; no weights are needed.
The derived sizes are cached on first read: the spec is frozen, so they
cannot go stale, and they stay out of ``==``, ``hash`` and ``replace()``,
which see only the fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class ModelSpec:
    """Architecture of a decoder-only LLM.

    Attributes:
        name: Model name, e.g. ``"opt-13b"``.
        num_layers: Transformer layer count.
        hidden_size: Model dimension ``H``.
        num_heads: Attention (query) heads.
        num_kv_heads: Key/value heads; ``< num_heads`` means GQA (LLaMA2-70B).
        ffn_dim: FFN intermediate dimension (``4H`` for OPT, SwiGLU dims for
            LLaMA).
        ffn_matrices: Weight matrices in the FFN (2 for GELU MLPs, 3 for
            SwiGLU).
        vocab_size: Vocabulary size (embedding / LM-head cost).
        max_context: Maximum supported context length in tokens.
        dtype_bytes: Bytes per parameter / activation element (2 for FP16).
    """

    name: str
    num_layers: int
    hidden_size: int
    num_heads: int
    num_kv_heads: int
    ffn_dim: int
    ffn_matrices: int
    vocab_size: int
    max_context: int
    dtype_bytes: int = 2

    def __post_init__(self) -> None:
        if self.hidden_size % self.num_heads != 0:
            raise ValueError("hidden_size must be divisible by num_heads")
        if self.num_heads % self.num_kv_heads != 0:
            raise ValueError("num_heads must be divisible by num_kv_heads")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads

    @cached_property
    def kv_dim(self) -> int:
        """Total width of the K (or V) projection output."""
        return self.num_kv_heads * self.head_dim

    @property
    def uses_gqa(self) -> bool:
        return self.num_kv_heads < self.num_heads

    @cached_property
    def kv_bytes_per_token_per_layer(self) -> int:
        """K + V bytes cached for one token in one layer."""
        return 2 * self.kv_dim * self.dtype_bytes

    @cached_property
    def kv_bytes_per_token(self) -> int:
        """K + V bytes cached for one token across all layers."""
        return self.num_layers * self.kv_bytes_per_token_per_layer

    @cached_property
    def attn_params_per_layer(self) -> int:
        """Q, K, V, O projection parameters in one layer."""
        h, kv = self.hidden_size, self.kv_dim
        return h * h + 2 * h * kv + h * h  # Q + (K,V) + O

    @cached_property
    def ffn_params_per_layer(self) -> int:
        return self.ffn_matrices * self.hidden_size * self.ffn_dim

    @cached_property
    def params_per_layer(self) -> int:
        return self.attn_params_per_layer + self.ffn_params_per_layer

    @property
    def embedding_params(self) -> int:
        """Token embedding + LM head (untied)."""
        return 2 * self.vocab_size * self.hidden_size

    @cached_property
    def total_params(self) -> int:
        return self.num_layers * self.params_per_layer + self.embedding_params

    @cached_property
    def weight_bytes(self) -> int:
        return self.total_params * self.dtype_bytes

    @cached_property
    def weight_bytes_per_layer(self) -> int:
        return self.params_per_layer * self.dtype_bytes
