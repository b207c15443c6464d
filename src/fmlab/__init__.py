"""fmlab: a cycle-accurate laboratory for frequency-modulated logic.

Builds FPGA-style netlists (LUTs and set/reset flip-flops), encodes
bits as circulating-pattern frequencies on circular shift registers,
constructs trigger/concealment/payload circuitry on top, and runs the
detection battery (activity scans, power modeling, spectral analysis,
payload demodulation, jamming) against the result.
"""

# netcore loads the kernel at its end, and the kernel reads netcore's model,
# so the model must load first, whichever submodule a caller imports first
from . import netcore  # noqa: F401

__version__ = "0.1.0"
