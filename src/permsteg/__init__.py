"""Distribution-preserving steganography for i.i.d. symbol streams.

Hidden bits ride inside blocks of covertext by permuting each block within
its letter-count class; the output stream is distributed exactly like the
input stream, so carrying traffic is statistically indistinguishable from
innocent traffic. The package provides the block scheme with randomized
payload lengths and its n = 2 case, the pair scheme, simulated sources, and
an analysis suite that verifies the distribution claim exactly on small
instances and measures hiding rates against their theoretical bounds.

The codec's names import with the package; the names of the analysis suite
and the simulated sources import their module on first access. A public
name is added in one place, an eager import below or ``_LAZY_MODULES``, and
``__all__`` is derived from the two.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .alphabet import (
    Alphabet,
    Block,
    Token,
    symbol_alphabet,
)
from .bits import bits_from_int, bits_to_bytes, bytes_to_bits, int_from_bits, iter_bits
from .codec import (
    BlockTrace,
    EmbedResult,
    ExtractResult,
    ExtractTrace,
    frame_payload,
    st2_embed,
    st2_extract,
    stn_embed,
    stn_embed_pieces,
    stn_extract,
    stn_extract_pieces,
    unframe_bits,
)
from .errors import (
    DegenerateCells,
    EmptyTrace,
    IndexOutOfRange,
    InvalidAlphabet,
    InvalidBlockLength,
    InvalidDelta,
    InvalidModel,
    NonPositive,
    PayloadOutOfRange,
    PermstegError,
    SpaceTooLarge,
    UnknownSymbol,
)
from .payload import (
    decode_index,
    encode_index,
    expand,
    expected_payload_bits,
    sample_delta,
)
from .ranking import rank_indices, sorted_class_size, unrank_indices

# The names of the analysis suite and the simulated sources load on first
# access (PEP 562), so importing the package or running embed and extract
# does not pay for those modules.
_LAZY_MODULES = {
    "analysis": (
        "DistributionReport",
        "RateReport",
        "block_distribution",
        "chi_square_gof",
        "empirical_distribution_report",
        "empirical_rate",
        "exact_distribution_report",
        "exact_output_distribution",
        "expected_log_class_size",
        "measure_stn_rate",
        "min_entropy",
        "model_digest",
        "rate_lower_bound",
        "shannon_entropy",
        "st2_rate",
    ),
    "sources": (
        "SourceModel",
        "draw_cover",
        "draw_hidden_bits",
        "hidden_bit_stream",
        "load_model",
        "save_model",
        "two_point_model",
        "uniform_model",
        "zipf_model",
    ),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}

__version__ = "0.1.0"

# The imports above also bind the submodules' names, so modules are left out.
__all__ = sorted(
    [name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, _ModuleType)]
    + list(_LAZY)
)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
