"""Multi-head vs multi-query attention laboratory.

Validated einsum-style reference kernels for both attention kinds in
batched and incremental form over immutable key/value caches, an exact
flop/word cost model with rational ratios, a parameter parity solver, a
desk-scale transformer with hand-written gradients, one incremental decoder
on preallocated key/value buffers, and a benchmark harness that times that
decoder.
"""

__version__ = "0.1.0"
