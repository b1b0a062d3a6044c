"""Which library boundaries the traced run wraps, and the per-layer metrics.

Each target is the module attribute a caller looks up, so the wrapper sees
every call that caller makes; the span is named after the module that
defines the function.  A target that no longer exists is skipped and its
counts read 0 (update this table when a boundary moves).
"""

from __future__ import annotations

from plasmacas import _quadrature

from spans import Tracer, layer_totals

SPAN_TARGETS = [
    # (module:attribute looked up by the caller, span name, attrs(args, result))
    ("plasmacas.roundtrip:legendre_pbar_log", "specfun.legendre_pbar_log", None),
    ("plasmacas.scattering:bessel_ik_log", "specfun.bessel_ik_log", None),
    ("plasmacas.roundtrip:sphere_t_logs", "scattering.sphere_t_logs", None),
    ("plasmacas.roundtrip:plane_r", "scattering.plane_r", None),
    ("plasmacas.energy_exact:assemble_block", "roundtrip.assemble_block",
     lambda args, block: {"dim": block.dim}),
    ("plasmacas.energy_exact:logdet_one_minus", "energy_exact.logdet_one_minus",
     lambda args, _: {"n3": factorised_n3(args[0])}),
    ("plasmacas.energy_exact:casimir_energy", "energy_exact.casimir_energy", None),
    ("plasmacas.cli:e0", "asymptotics.e0", None),
    ("plasmacas.cli:e1", "asymptotics.e1", None),
    ("plasmacas.cli:theta", "asymptotics.theta", None),
    ("plasmacas.cli:pfa_energy", "pfa.pfa_energy", None),
    ("plasmacas.cli:run_sweep", "cli.run_sweep", None),
]
# One kappa quadrature pass; recorded as an interval, never a parent, so the
# driver's self time still covers it.
PASS_PHASE = ("plasmacas.energy_exact:_quadrature_pass", "energy_exact._quadrature_pass")

COUNTED = ["specfun.legendre_pbar_log", "specfun.bessel_ik_log", "scattering.sphere_t_logs",
           "scattering.plane_r", "roundtrip.assemble_block", "energy_exact.logdet_one_minus",
           "asymptotics.e0", "asymptotics.e1", "asymptotics.theta", "pfa.pfa_energy"]

# (name, unit, better) of every per-layer metric, in print order
PER_LAYER = (
    [(f"{n}.{k}", u, "lower") for n in COUNTED for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("roundtrip.assemble_block.dim_max", "count", "lower"),
       ("energy_exact.logdet_one_minus.n3_sum", "count", "lower"),
       ("energy_exact.logdet_per_block", "ratio", "lower"),
       ("energy_exact.block_useful_ratio", "ratio", "higher"),
       ("energy_exact.casimir_energy.self_s", "s", "lower"),
       ("cli.run_sweep.self_s", "s", "lower"),
       ("quadrature.gauss_laguerre.hits", "count", "higher"),
       ("quadrature.gauss_laguerre.misses", "count", "lower"),
       ("trace.spans", "count", "lower"),
       ("trace.wall_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")])


def factorised_n3(block) -> int:
    """Sum of dim^3 over the matrices logdet_one_minus factorises: the m = 0
    block splits into its TE and TM halves."""
    n = block.dim
    return 2 * (n // 2) ** 3 if block.m == 0 else n ** 3


def install(tracer: Tracer) -> None:
    for target, name, attrs in SPAN_TARGETS:
        tracer.patch(target, lambda fn, name=name, attrs=attrs: tracer.wrap(name, fn, attrs))
    target, name = PASS_PHASE
    tracer.patch(target, lambda fn: tracer.wrap_phase(name, fn))


def clear_caches() -> None:
    """Start every pass from empty quadrature-rule caches, so passes repeat
    the same work and the hit/miss counts are those of a first pass."""
    for fn in vars(_quadrature).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def gauss_laguerre_info():
    info = _quadrature.gauss_laguerre.cache_info()
    return info.hits, info.misses


def useful_blocks(spans, phases) -> int:
    """Blocks assembled inside the last kappa pass of each point: the pass
    whose values the energy keeps, at the final l_max."""
    last = {}
    for ph in phases:
        if ph.point not in last or ph.end > last[ph.point].end:
            last[ph.point] = ph
    return sum(1 for s in spans if s.name == "roundtrip.assemble_block"
               and s.point in last and last[s.point].start <= s.start <= last[s.point].end)


def per_layer_metrics(tracer: Tracer, gl_hits: int, gl_misses: int, wall_s: float,
                      overhead_s: float) -> dict:
    totals = layer_totals(tracer.spans)

    def tot(name, key):
        return totals.get(name, {}).get(key, 0)

    out = {}
    for name in COUNTED:
        out[f"{name}.calls"] = tot(name, "calls")
        out[f"{name}.self_s"] = float(tot(name, "self_s"))
    blocks = tot("roundtrip.assemble_block", "calls")
    logdets = tot("energy_exact.logdet_one_minus", "calls")
    out["roundtrip.assemble_block.dim_max"] = max(
        (s.attrs["dim"] for s in tracer.spans if s.name == "roundtrip.assemble_block"), default=0)
    out["energy_exact.logdet_one_minus.n3_sum"] = sum(
        s.attrs["n3"] for s in tracer.spans if s.name == "energy_exact.logdet_one_minus")
    out["energy_exact.logdet_per_block"] = logdets / blocks if blocks else 0.0
    out["energy_exact.block_useful_ratio"] = (
        useful_blocks(tracer.spans, tracer.phases) / blocks if blocks else 0.0)
    out["energy_exact.casimir_energy.self_s"] = float(tot("energy_exact.casimir_energy", "self_s"))
    out["cli.run_sweep.self_s"] = float(tot("cli.run_sweep", "self_s"))
    out["quadrature.gauss_laguerre.hits"] = gl_hits
    out["quadrature.gauss_laguerre.misses"] = gl_misses
    out["trace.spans"] = len(tracer.spans)
    out["trace.wall_s"] = wall_s
    out["trace.overhead_s"] = overhead_s
    return out
