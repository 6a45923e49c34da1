"""Run one benchmark case in a fresh interpreter and print its result.

    python3 perfbench/worker.py CASE_JSON T0 MODE

CASE_JSON is one case from ``cases.py``. T0 is the parent's
``time.perf_counter()`` taken just before it started this process; on Linux
that clock is shared by all processes, so the worker reports its own cold
start (interpreter start, ``import ladderlab``, spec load) without a round
trip. MODE is ``setup`` (stop once ready), ``run`` or ``trace``.

Standard output gets one JSON line once the worker is ready and, unless
MODE is ``setup``, the full result as its last line. An operation that
raises or gives a wrong answer is reported in ``error``; a failure to import
the library or load the specs exits non-zero before the first line.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"

# Module-level memo tables of the library; a fresh interpreter starts with
# all of them empty, and the worker records that it did.
MEMO_TABLES = ("_SAT_MEMO", "_GE_MEMO", "_LE_MEMO", "_PATTERN_EXACT", "_PATTERN_SAT")


def op_verify(lab, context, case):
    word = lab.parse_word(case["word"])
    report = lab.run_verify(context, word, case["radius"],
                            cutoff=case["cutoff"], threads=1)
    text = json.dumps(report.to_json(), sort_keys=True)
    return text, {"report": report}


def op_certify(lab, context, case):
    word = lab.parse_word(case["word"])
    radius = case["radius"]
    previous = lab.theorem_bound(word, radius - 1, context.factors)
    cert = lab.theorem_bound(word, radius, context.factors)
    text = json.dumps(cert.to_json(), sort_keys=True)
    parsed = lab.BoundCertificate.from_json(json.loads(text))
    return text, {
        "cert": cert,
        "parsed": parsed,
        "verified": lab.verify_certificate(parsed),
        "replayed": lab.replay_certificate(parsed),
        "ordered": lab.le_bound(previous.bound, parsed.bound),
    }


def op_decide(lab, context, case):
    from ladderlab.report import serialize_witness

    word = lab.parse_word(case["word"])
    domain = lab.SearchDomain.from_ball(context.ball(case["radius"]))
    result = lab.word_index(context, word, domain, cutoff=case["cutoff"], threads=1)
    payload = {
        "word": case["word"],
        "domain": domain.kind,
        "index": result.index,
        "cutoff": case["cutoff"],
        "cutoff_hit": result.cutoff_hit,
        "nodes_explored": result.nodes_explored,
        "witness": serialize_witness(result.witness),
    }
    return json.dumps(payload, sort_keys=True), {"word": word, "result": result}


def op_cli(lab, context, case):
    from ladderlab import cli

    argv = case["argv"] + ["--groups"]
    argv += [str(SPECS / f"{g}.json") for g in case["groups"]] + ["--json"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    return stdout.getvalue(), {"code": code}


OPS = {"verify": op_verify, "certify": op_certify, "decide": op_decide, "cli": op_cli}


def check(lab, context, case, text, out) -> str | None:
    """None when the operation's output is right, else what is wrong."""
    kind = case["kind"]
    if kind == "verify":
        report = out["report"]
        if report.verdict != "VERIFIED" or report.observed_index != case["index"]:
            return (f"verdict {report.verdict} index {report.observed_index}, "
                    f"expected VERIFIED index {case['index']}")
    elif kind == "certify":
        cert, parsed = out["cert"], out["parsed"]
        if out["verified"] is not True:
            return "verify_certificate rejected the re-parsed certificate"
        if out["replayed"] != cert.bound:
            return "replay_certificate differs from the bound"
        if not (parsed.bound_text() == cert.bound_text() == json.loads(text)["bound_text"]):
            return "bound_text changed in the round trip"
        if cert.ell != case["ell"]:
            return f"ell {cert.ell}, expected {case['ell']}"
        if out["ordered"] is not True:
            return f"le_bound(r-1, r) is {out['ordered']}"
    elif kind == "decide":
        result = out["result"]
        if result.index != case["cutoff"] or not result.cutoff_hit:
            return f"index {result.index} hit {result.cutoff_hit}, expected the cutoff"
        witness = result.witness
        formula = lab.word_formula(context, out["word"])
        if not lab.is_ladder(formula, witness.a_rows, witness.b_rows):
            return "witness is not a ladder"
    elif kind == "cli":
        if out["code"] != 0:
            return f"exit code {out['code']}"
        doc = json.loads(text)
        wrong = {k: doc.get(k) for k, v in case["expect"].items() if doc.get(k) != v}
        if wrong:
            return f"unexpected {wrong}"
        if "format" in doc and not lab.verify_certificate(lab.BoundCertificate.from_json(doc)):
            return "verify_certificate rejected the CLI certificate"
    return None


def main(argv) -> int:
    case = json.loads(argv[0])
    t0 = float(argv[1])
    mode = argv[2]
    sys.path.insert(0, str(ROOT / "src"))
    import ladderlab as lab
    from ladderlab import cli, groups  # noqa: F401  (cli: imported before tracing)

    if not Path(lab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"ladderlab imported from {lab.__file__}, not this checkout", file=sys.stderr)
        return 2
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with tracer.span("bench.setup") if tracer else contextlib.nullcontext():
        context = lab.FreeProduct([groups.load_group(SPECS / f"{g}.json", index=i)
                                   for i, g in enumerate(case["groups"])])
    setup_s = time.perf_counter() - t0
    ramsey = sys.modules["ladderlab.ramsey"]
    fresh = not any(getattr(ramsey, name, None) for name in MEMO_TABLES)
    result = {"setup_s": setup_s, "fresh_memo": fresh}
    print(json.dumps(result), flush=True)  # ready: later failures are the operation's
    if mode == "setup":
        return 0

    error = None
    text = ""
    if tracer:
        tracer.phase = "op"
    start = time.perf_counter()
    try:
        with tracer.span("bench.op") if tracer else contextlib.nullcontext():
            text, out = OPS[case["kind"]](lab, context, case)
    except Exception as exc:  # a failed operation is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    op_s = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    if error is None:
        error = check(lab, context, case, text, out)
    result.update(op_s=op_s, error=error, output_bytes=len(text.encode()),
                  rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer:
        evaluate_s, evaluate_calls = tracer.replay_evaluate()
        layers = tracer.metrics(evaluate_s, evaluate_calls)
        writes_certificate = case["kind"] == "certify" or case.get("argv", [""])[0] == "bound"
        layers["bounds.cert_bytes"] = result["output_bytes"] if writes_certificate else 0
        result.update(layers=layers, spans=tracer.span_records())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
