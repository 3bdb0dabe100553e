"""Command-line front end.

Every invocation prints a single JSON report to stdout and a one-line human
summary to stderr.  Exit codes: 0 = computed, 1 = input error, 2 = a
certificate of violation was produced (refutation or detection).  Reports
with identical inputs, parameters, and version are byte-identical except for
the runtime_ms field; the default seed comes from SCHMIDT_NORMS_SEED.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

from . import __version__
from .cones import (_block_value, _check_state, _witness_pairing, k_block_positivity,
                    sn_upper_verify, witness_check)
from .linalg import Frame
from .maps import (_choi_state, _contraction_value, _hermitian_choi, detection_map,
                   hermitian_trace_norm, idk_op_norm, k_peb_certify, k_peb_refute,
                   k_positivity, sn_contraction_test)
from .matio import (
    FormatError,
    dump_bipartite,
    dump_state,
    load_bipartite,
    load_ensemble,
    load_map,
    load_state,
    read_json,
    write_json,
)
from .norms import (
    SeeSawConfig,
    maxk_space_norm_bounds,
    min_order_norm,
    omin_norm,
    sk_norm,
)
from .oracle import (
    OracleConfig,
    brute_block_min,
    brute_idk_norm,
    brute_min_order,
    brute_omin,
    brute_sk_norm,
)
from .rand import RandomConfig
from . import fixtures as fixture_mod

RECHECK_TOL = 1e-6


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # input errors must exit 1, not argparse's default 2
    def error(self, message):
        raise _CliError(message)


def _digest(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise _CliError("cannot read %r: %s" % (path, exc))
    return {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SCHMIDT_NORMS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _CliError("SCHMIDT_NORMS_SEED must be an integer, got %r" % env)
    return 0


def _seesaw_params(args) -> dict:
    return {"k": args.k, "seed": _seed(args), "restarts": args.restarts,
            "max_iters": args.max_iters, "tol": args.tol}


def _seesaw_cfg(params: dict) -> SeeSawConfig:
    """The search budget that a report's ``parameters`` record."""
    return SeeSawConfig(restarts=params["restarts"], max_iters=params["max_iters"],
                        obj_tol=params["tol"], rng=RandomConfig(seed=params["seed"]))


def _oracle_cfg(args) -> OracleConfig:
    return OracleConfig(samples=args.samples, polish_steps=args.polish_steps,
                        rng=RandomConfig(seed=_seed(args)))


def _dump_frame(frame: Frame | None) -> dict | None:
    if frame is None:
        return None
    return {"n": int(frame.n), "k": int(frame.k),
            "re": frame.vectors.real.tolist(),
            "im": frame.vectors.imag.tolist()}


def _dump_search(record) -> dict:
    """The ``optim.SearchRecord`` fields of a report, its histories left out."""
    return {"converged": bool(record.converged),
            "restarts_used": int(record.restarts_used),
            "iterations": int(record.iterations)}


def _dump_estimate(est, **extra) -> dict:
    """Estimate fields plus ``extra``; only a NormEstimate has a witness."""
    out = {"value": est.value, "direction": est.direction,
           **_dump_search(est.search), **extra}
    witness = getattr(est, "witness", None)
    if witness is not None:
        out["witness"] = {
            "vectors": [dump_state(v) for v in witness.vectors],
            "frame": _dump_frame(witness.frame),
        }
    return out


def _dump_verdict(verdict) -> dict:
    out = {"status": verdict.status, "min_value": verdict.min_value,
           "k": int(verdict.k), **_dump_search(verdict.search)}
    if verdict.witness_vector is not None:
        out["witness_vector"] = dump_state(verdict.witness_vector)
    return out


def _dump_certificate(cert, **extra) -> dict:
    return {"pairing": cert.pairing, "k": int(cert.k),
            "valid": bool(cert.valid),
            "block_pos_evidence": _dump_verdict(cert.block_pos_evidence),
            **extra}


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (inputs, parameters, result, exit_code)
# ---------------------------------------------------------------------------


def _handle_norm(args):
    inputs = {"file": _digest(args.file)}
    op = load_bipartite(read_json(args.file))
    params = _seesaw_params(args)
    cfg = _seesaw_cfg(params)  # validates the budget flags of every variant
    if args.variant == "maxspace":  # closed forms: no seed or budget shapes it
        lower, upper = maxk_space_norm_bounds(op, args.k)
        result = {"lower": _dump_estimate(lower), "upper": _dump_estimate(upper)}
        return inputs, {"k": args.k}, result, 0
    fn = {"sk": sk_norm, "omin": omin_norm, "minorder": min_order_norm}[args.variant]
    return inputs, params, _dump_estimate(fn(op, args.k, cfg)), 0


def _handle_cone_blockpos(args):
    inputs = {"file": _digest(args.file)}
    op = load_bipartite(read_json(args.file))
    params = _seesaw_params(args)
    verdict = k_block_positivity(op, args.k, _seesaw_cfg(params))
    code = 2 if verdict.status == "refuted" else 0
    return inputs, params, _dump_verdict(verdict), code


def _handle_cone_witness(args):
    inputs = {"witness": _digest(args.witness), "state": _digest(args.state)}
    w = load_bipartite(read_json(args.witness))
    rho = load_bipartite(read_json(args.state))
    params = _seesaw_params(args)
    cert = witness_check(w, rho, args.k, _seesaw_cfg(params))
    result = _dump_certificate(
        cert, sn_lower_bound=cert.k + 1 if cert.valid else None)
    return inputs, params, result, 2 if cert.valid else 0


def _handle_cone_verify_sn(args):
    inputs = {"state": _digest(args.state), "ensemble": _digest(args.ensemble)}
    rho = load_bipartite(read_json(args.state))
    ens = load_ensemble(read_json(args.ensemble))
    ok = sn_upper_verify(rho, ens)
    result = {"verified": bool(ok), "k": int(ens.k)}
    return inputs, {}, result, 0


def _handle_map(args):
    params = _seesaw_params(args)
    cfg = _seesaw_cfg(params)
    if args.variant == "detect":
        inputs = {"state": _digest(args.state), "map": _digest(args.map)}
        rho = load_bipartite(read_json(args.state))
        psi = load_map(read_json(args.map))
        det = detection_map(psi, cfg)
        res = sn_contraction_test(rho, det, args.k, cfg)
        result = {"status": res.status, "trace_norm_value": res.trace_norm_value,
                  "k": int(res.k), "norm_bound": res.norm_bound,
                  "sn_lower_bound": res.sn_lower_bound}
        return inputs, params, result, 2 if res.detected else 0

    inputs = {"file": _digest(args.file)}
    phi = load_map(read_json(args.file))
    if args.variant == "kpos":
        verdict = k_positivity(phi, args.k, cfg)
        code = 2 if verdict.status == "refuted" else 0
        return inputs, params, _dump_verdict(verdict), code
    if args.variant == "kpeb":
        if args.ensemble is not None:
            inputs["ensemble"] = _digest(args.ensemble)
            ens = load_ensemble(read_json(args.ensemble))
            ok = k_peb_certify(phi, ens)
            return inputs, params, {"certified": bool(ok), "k": int(ens.k)}, 0
        cert = k_peb_refute(phi, args.k, cfg)
        result = _dump_certificate(cert, witness_operator=dump_bipartite(cert.W))
        return inputs, params, result, 2 if cert.valid else 0
    if args.variant == "idk-norm":
        return inputs, params, _dump_estimate(idk_op_norm(phi, args.k, cfg)), 0
    est = hermitian_trace_norm(phi, args.k, cfg)
    result = _dump_estimate(est, attaining_input=dump_state(est.attaining_input))
    return inputs, params, result, 0


def _handle_oracle(args):
    params = {"k": args.k, "seed": _seed(args), "samples": args.samples,
              "polish_steps": args.polish_steps}
    cfg = _oracle_cfg(args)
    inputs = {"file": _digest(args.file)}
    if args.variant == "idk":
        value = brute_idk_norm(load_map(read_json(args.file)), args.k, cfg)
    else:
        op = load_bipartite(read_json(args.file))
        fn = {"sk": brute_sk_norm, "blockmin": brute_block_min,
              "minorder": brute_min_order, "omin": brute_omin}[args.variant]
        value = fn(op, args.k, cfg)
    return inputs, params, {"value": value}, 0


def _recheck_blockpos(report: dict, args):
    obj = read_json(args.file)
    op = _hermitian_choi(load_map(obj)) if report["command"] == "map kpos" \
        else load_bipartite(obj)
    value = _block_value(op, load_state(report["result"]["witness_vector"]))
    return value, "min_value", {"file": _digest(args.file)}


def _recheck_witness(report: dict, args):
    w = load_bipartite(read_json(args.witness))
    rho = load_bipartite(read_json(args.state))
    _check_state(rho)
    inputs = {"witness": _digest(args.witness), "state": _digest(args.state)}
    return _witness_pairing(w, rho), "pairing", inputs


def _recheck_kpeb(report: dict, args):
    rho = _choi_state(load_map(read_json(args.map)))
    w = load_bipartite(report["result"]["witness_operator"])
    return _witness_pairing(w, rho), "pairing", {"map": _digest(args.map)}


def _report_field(obj: dict, name: str, kinds=int):
    """``obj[name]`` if it is an instance of ``kinds``, not a bool and, as a
    float, finite; otherwise an input error (exit 1)."""
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, kinds) \
            or isinstance(value, float) and not math.isfinite(value):
        what = {int: "an integer", dict: "an object"}.get(kinds, "a finite number")
        raise _CliError("report field %r must be %s, got %r" % (name, what, value))
    return value


def _recheck_detect(report: dict, args):
    psi = load_map(read_json(args.map))
    rho = load_bipartite(read_json(args.state))
    p = _report_field(report, "parameters", dict)
    for name in ("restarts", "max_iters", "seed"):
        _report_field(p, name)
    _report_field(p, "tol", (int, float))
    value = _contraction_value(rho, detection_map(psi, _seesaw_cfg(p)))
    inputs = {"map": _digest(args.map), "state": _digest(args.state)}
    return value, "trace_norm_value", inputs


# recheckable command: (the recheck of its report, the input flags it needs)
_RECHECKS = {"cone blockpos": (_recheck_blockpos, ("file",)),
             "map kpos": (_recheck_blockpos, ("file",)),
             "cone witness": (_recheck_witness, ("witness", "state")),
             "map kpeb": (_recheck_kpeb, ("map",)),
             "map detect": (_recheck_detect, ("map", "state"))}


def _handle_oracle_recheck(args):
    report = read_json(args.report)
    if (not isinstance(report, dict) or "command" not in report
            or "result" not in report):
        raise _CliError("--report file is not a tool report")
    command = report["command"]
    if not isinstance(command, str) or command not in _RECHECKS:
        raise _CliError("cannot recheck reports of %r" % (command,))
    recheck, flags = _RECHECKS[command]
    if any(getattr(args, flag) is None for flag in flags):
        raise _CliError("recheck of %r needs %s"
                        % (command, " and ".join("--" + flag for flag in flags)))
    _report_field(report, "result", dict)
    try:
        value, field, inputs = recheck(report, args)
        reference = _report_field(report["result"], field, (int, float))
    except KeyError as exc:
        raise _CliError("report is missing field %s" % exc)
    inputs["report"] = _digest(args.report)
    diff = abs(value - reference)
    result = {"recheck_value": value, "reference": reference,
              "difference": diff, "match": bool(diff <= RECHECK_TOL)}
    return inputs, {"tolerance": RECHECK_TOL}, result, 0 if diff <= RECHECK_TOL else 1


def _handle_fixtures(args):
    if args.name == "example51":
        obj = dump_bipartite(fixture_mod.example51(args.n))
    elif args.name == "swap":
        obj = dump_bipartite(fixture_mod.swap_operator(args.n))
    else:
        if args.fidelity is None:
            raise _CliError("fixtures emit isotropic needs --fidelity")
        obj = dump_bipartite(fixture_mod.isotropic(args.fidelity, args.n))
    if args.out is not None:
        write_json(args.out, obj)
        print("wrote %s" % args.out, file=sys.stderr)
        return None
    json.dump(obj, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return None


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_seesaw_opts(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-9)


def _add_oracle_opts(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--polish-steps", dest="polish_steps", type=int, default=200)


# keyword arguments of the arguments that subcommands share; any other
# flag a subcommand names is a required string
_ARGUMENTS = {"file": {}, "--k": {"type": int, "required": True}}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="schmidt-norms",
                     description="Schmidt-rank-constrained norms, cones, and "
                                 "map certificates")
    sub = parser.add_subparsers(dest="group", required=True)
    groups = {group: sub.add_parser(group, help=text).add_subparsers(
                  dest="variant", required=True)
              for group, text in (("norm", "bipartite operator norms"),
                                  ("cone", "cone membership and witnesses"),
                                  ("map", "map-level certificates and norms"),
                                  ("oracle", "independent brute-force checks"))}

    def command(group, variant, func, *arguments, opts=_add_seesaw_opts):
        p = groups[group].add_parser(variant)
        for name in arguments:
            p.add_argument(name, **_ARGUMENTS.get(name, {"required": True}))
        if opts is not None:
            opts(p)
        p.set_defaults(func=func, command="%s %s" % (group, variant))
        return p

    for variant in ("sk", "omin", "minorder", "maxspace"):
        command("norm", variant, _handle_norm, "file", "--k")
    command("cone", "blockpos", _handle_cone_blockpos, "file", "--k")
    command("cone", "witness", _handle_cone_witness, "--witness", "--state", "--k")
    command("cone", "verify-sn", _handle_cone_verify_sn, "--state", "--ensemble",
            opts=None)
    for variant in ("kpos", "kpeb", "idk-norm", "trnorm-h"):
        p = command("map", variant, _handle_map, "file", "--k")
        if variant == "kpeb":
            p.add_argument("--ensemble", default=None)
    command("map", "detect", _handle_map, "--state", "--map", "--k")
    for variant in ("sk", "blockmin", "minorder", "omin", "idk"):
        command("oracle", variant, _handle_oracle, "file", "--k", opts=_add_oracle_opts)
    p = command("oracle", "recheck", _handle_oracle_recheck, "--report", opts=None)
    for flag in ("--file", "--state", "--witness", "--map"):
        p.add_argument(flag, default=None)

    p_fx = sub.add_parser("fixtures", help="emit built-in fixture files")
    fx_sub = p_fx.add_subparsers(dest="action", required=True)
    p = fx_sub.add_parser("emit")
    p.add_argument("name", choices=["example51", "swap", "isotropic"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--fidelity", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_handle_fixtures, command="fixtures emit")

    return parser


def _summary(command: str, result: dict, code: int) -> str:
    bits = [command]
    for key in ("value", "min_value", "pairing", "trace_norm_value", "status",
                "verified", "certified", "match"):
        if isinstance(result, dict) and key in result and result[key] is not None:
            val = result[key]
            bits.append("%s=%.9g" % (key, val) if isinstance(val, float)
                        else "%s=%s" % (key, val))
    bits.append("exit=%d" % code)
    return "  ".join(bits)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.func is _handle_fixtures:
            args.func(args)
            return 0
        t0 = time.monotonic()
        inputs, params, result, code = args.func(args)
        report = {
            "command": args.command,
            "inputs": inputs,
            "parameters": params,
            "result": result,
            "runtime_ms": int((time.monotonic() - t0) * 1000),
            "version": __version__,
        }
        print(json.dumps(report, sort_keys=True, indent=2))
        print(_summary(args.command, result, code), file=sys.stderr)
        return code
    except (_CliError, FormatError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
