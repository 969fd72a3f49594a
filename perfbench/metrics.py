"""Metric table of the benchmark: names, units, direction, layer and intent.

`moves` names the end-to-end metric a per-layer metric should move when its
layer gets faster, and `on` the workloads where it should show; the
workloads not named are where a change to that layer should show nothing.
BENCHMARK.json repeats name, unit, direction and bound; a test keeps the
two in step.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    layer: str
    moves: str
    on: str
    bound: float | None = None


END_TO_END = (
    Metric("wall_s", "s", "lower", "end-to-end", "-", "all", 0.2),
    Metric("job_p50_s", "s", "lower", "end-to-end", "-", "all", 0.2),
    Metric("job_p90_s", "s", "lower", "end-to-end", "-", "all", 0.25),
    Metric("setup_s", "s", "lower", "end-to-end", "-", "all", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "end-to-end", "-", "all", 0.05),
)

_IDEM = "idem-random,idem-fixtures"

PER_LAYER = (
    Metric("kernels.normal_form.calls", "count", "lower", "kernels", "wall_s,job_p50_s", "idem-random"),
    Metric("kernels.normal_form.self_s", "s", "lower", "kernels", "wall_s,job_p50_s", "idem-random"),
    Metric("kernels.normal_form.zero_frac", "ratio", "lower", "kernels", "wall_s", "idem-random"),
    Metric("groebner.buchberger.calls", "count", "lower", "groebner", "wall_s,job_p90_s", _IDEM),
    Metric("groebner.buchberger.self_s", "s", "lower", "groebner", "wall_s,job_p90_s", _IDEM),
    Metric("groebner.s_polynomial.calls", "count", "lower", "groebner", "wall_s", _IDEM),
    Metric("groebner.enumerate_points.calls", "count", "lower", "groebner", "wall_s", _IDEM),
    Metric("groebner.enumerate_points.self_s", "s", "lower", "groebner", "wall_s", _IDEM),
    Metric("univariate.irreducible_factors.calls", "count", "lower", "univariate", "wall_s", "idem-random"),
    Metric("univariate.irreducible_factors.self_s", "s", "lower", "univariate", "wall_s", "idem-random"),
    Metric("mpoly.mul.calls", "count", "lower", "mpoly", "wall_s", _IDEM),
    Metric("mpoly.mul.self_s", "s", "lower", "mpoly", "wall_s", _IDEM),
    Metric("mpoly.substitute.self_s", "s", "lower", "mpoly", "wall_s", _IDEM),
    Metric("search.naive_idempotents.calls", "count", "lower", "search", "job_p50_s", "idem-fixtures"),
    Metric("search.naive_idempotents.self_s", "s", "lower", "search", "job_p50_s", "idem-fixtures"),
    Metric("kernels.rref.calls", "count", "lower", "kernels", "wall_s,job_p90_s", "matsuo"),
    Metric("kernels.rref.self_s", "s", "lower", "kernels", "wall_s,job_p90_s", "matsuo"),
    Metric("kernels.rref.cells", "count", "lower", "kernels", "wall_s,job_p90_s", "matsuo"),
    Metric("linalg.kernel.calls", "count", "lower", "linalg", "job_p50_s", "matsuo"),
    Metric("linalg.eigenspace.calls", "count", "lower", "linalg", "job_p50_s", "matsuo"),
    Metric("linalg.eigenspace.self_s", "s", "lower", "linalg", "job_p50_s", "matsuo"),
    Metric("linalg.solve.calls", "count", "lower", "linalg", "job_p50_s", "matsuo"),
    Metric("linalg.solve.self_s", "s", "lower", "linalg", "job_p50_s", "matsuo"),
    Metric("linalg.mat_vec.calls", "count", "lower", "linalg", "wall_s", "matsuo,idem-fixtures"),
    Metric("linalg.mat_vec.self_s", "s", "lower", "linalg", "wall_s", "matsuo,idem-fixtures"),
    Metric("linalg.mat_mul.calls", "count", "lower", "linalg", "wall_s", "matsuo,idem-fixtures"),
    Metric("linalg.mat_mul.self_s", "s", "lower", "linalg", "wall_s", "matsuo,idem-fixtures"),
    Metric("algebra.product.calls", "count", "lower", "algebra", "job_p50_s", "matsuo"),
    Metric("algebra.product.self_s", "s", "lower", "algebra", "job_p50_s", "matsuo"),
    Metric("algebra.ad_matrix.self_s", "s", "lower", "algebra", "job_p50_s", "matsuo"),
    Metric("fusion.check_axis.calls", "count", "lower", "fusion", "wall_s,job_p50_s", "matsuo"),
    Metric("fusion.check_axis.self_s", "s", "lower", "fusion", "wall_s,job_p50_s", "matsuo"),
    Metric("fusion.derivation_space.self_s", "s", "lower", "fusion", "wall_s,job_p90_s", "matsuo"),
    Metric("fusion.is_automorphism.calls", "count", "lower", "fusion", "wall_s,job_p90_s", "matsuo"),
    Metric("fusion.is_automorphism.self_s", "s", "lower", "fusion", "wall_s,job_p90_s", "matsuo"),
    Metric("axet.close_axet.self_s", "s", "lower", "axet", "wall_s", "matsuo"),
    Metric("axet.miyamoto_group.self_s", "s", "lower", "axet", "wall_s", "matsuo"),
    Metric("axet.aut_from_axis_permutations.self_s", "s", "lower", "axet", "wall_s,job_p90_s", "matsuo"),
    Metric("axet.aut.useful_ratio", "ratio", "higher", "axet", "wall_s", "matsuo"),
    Metric("decomp.decompose_joint.self_s", "s", "lower", "decomp", "job_p50_s", "idem-fixtures"),
    Metric("decomp.extension_space.self_s", "s", "lower", "decomp", "job_p50_s", "idem-fixtures"),
    Metric("decomp.sign_kernel.self_s", "s", "lower", "decomp", "job_p50_s", "idem-fixtures"),
    Metric("matsuo.from_generators.self_s", "s", "lower", "matsuo", "setup_s", "matsuo"),
    Metric("matsuo.matsuo_algebra.self_s", "s", "lower", "matsuo", "setup_s", "matsuo"),
    Metric("io.parse_algebra.self_s", "s", "lower", "io", "job_p50_s,setup_s", "idem-fixtures"),
    Metric("cli.main.self_s", "s", "lower", "cli", "job_p50_s", "idem-fixtures"),
    Metric("trace.overhead_frac", "ratio", "lower", "benchmark", "none", "all"),
)
