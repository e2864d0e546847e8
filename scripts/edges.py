"""Run every budget edge, `python scripts/edges.py`: each row of ROWS in a fresh interpreter under its own timeout and
address-space cap (RLIMIT_AS in KiB, set in the child only; an API refusal exits 2 as at the CLI), one JSON line per row.
A row passes on its exit code and its one check, if any: its stripped stdout, a partner row's equal JSON "vector", or the
budget constants its stderr names.  `at` names the budget whose edge a row runs at; exits 1 if any row fails.  `run` returns
the row's JSON record, which scripts/bench.py reads."""

import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH")])))
GRACE = 1  # second between a timed-out row's SIGTERM and SIGKILL
Row = namedtuple("Row", "name argv cap timeout code stdout partner names at", defaults=(400000, 20, 0, None, None, (), None))


def cli(line, *flags):
    return [*flags, "-m", "ribbonmod.cli", *line.split()]


def api(line):
    return ["-c", f"import sys\nfrom ribbonmod import *\ntry:\n    {line}\nexcept CapacityError as exc:\n"
                  '    print(f"error: {exc}", file=sys.stderr)\n    sys.exit(2)']


def check(module, call):
    # a check function of the tests, run in the child
    return ["-c", f"from {module} import {call.partition('(')[0]}; {call}"]


def past(name, argv, *names):
    return Row(f"refuse-{name}", argv, code=2, names=names)


def pair(first, second, family, n, p):
    # one query by two methods; the second's JSON vector must equal the first's
    line, name = f"cvec --family {family} --n {n} --p {p} --format json --method ", f"{family}{n}-p{p}"
    return [Row(f"{first}-{name}", cli(line + first), timeout=60),
            Row(f"{second}-{name}", cli(line + second), timeout=60, partner=f"{first}-{name}")]


ROWS = [
    # the group oracles at their budget: verify sweeps A9, B7 and D7
    Row("verify", cli("verify", "-S", "-B"), timeout=60, at="ribbon.ORACLE_MAX_N"),
    *(Row(f"deferred-{line.split()[0]}-{line.split()[-1]}", cli(line, "-S", "-B"), None, 60) for line in (
        "cvec --family A --n 5 --p 3 --format csv", "cvec --family A --n 5 --p 3 --format json",
        "coxeter --group H3 --p 5 --format csv", "ribbon --family B --alpha 0,2,1 --mod 3 --format json")),
    # the naive sweep up to its budget, nothing dropped: 24 = 44 in base 5, so 2^23 fields in 3 bit planes; 2^21 two-byte
    # fields (257 <= p <= 2^16) in 9 planes; 26 = 222 in base 3, so 2^25 one-byte fields, half the lattice, in 2 planes,
    # and p = 131 > n in 8 planes
    Row("naive-D24-p5", cli("cvec --family D --n 24 --p 5 --method naive --format json"), 1500000, 300),
    Row("naive-A23-p257", cli("cvec --family A --n 23 --p 257 --method naive --format json"), 512000, 120),
    *(Row(f"naive-D26-p{p}", cli(f"cvec --family D --n 26 --p {p} --method naive --format json"), 1000000, 120, at=at)
      for p, at in ((3, "cvec.SWEEP_MAX_BITS"), (131, None))),
    # the subset budget: all 2^18 classes of D18 mod 3, and every class of D18, A18 and B18 (in two-word lanes)
    Row("coxeter-D18-p3", cli("coxeter --group D18 --p 3"), 1000000, 120, at="coxeter.SUBSET_MAX_RANK"),
    *(Row(f"coxeter-{g}-classes", check("test_cli", f"check_classes_add_up({g!r})"), 1000000, 120) for g in ("D18", "A18", "B18")),
    *(row for f in "BD" for row in (Row(f"coxeter-{f}18-p257", cli(f"coxeter --group {f}18 --p 257 --format json"), 1000000, 120),
      Row(f"naive-{f}18-p257", cli(f"cvec --family {f} --n 18 --p 257 --method naive --format json"), 1000000, 120,
          partner=f"coxeter-{f}18-p257"))),
    # one class of 18 generators of A36, with 18 in its complement
    Row("coxeter-A36-odd", cli("coxeter --group A36 --subset " + ",".join(map(str, range(1, 36, 2)))), 1000000, 120),
    *(Row(f"ribbon-{f}-1^3000", cli(f"ribbon --family {f} --alpha {'' if f == 'A' else '0,'}{'1,' * 2999}1"), stdout="1")
      for f in "ABD"),
    # under the complement budget: the complement of (10^10, 1) is never built
    Row("ribbon-A-10^10,1-mod3", cli("ribbon --family A --alpha 10000000000,1 --mod 3"), stdout="1"),
    Row("ribbon-A-1^200000-mod3", ["-c", 'import sys; from ribbonmod.cli import main; sys.exit(main(["ribbon", "--family", "A", '
                                         '"--alpha", ",".join(["1"] * 200000), "--mod", "3"]))'], stdout="1"),
    # the theorem sweep: A49-p3 at 22 positions in 2 bit planes; D140-p7 at 21, its lowest digit 0, so 1 is adjoined;
    # A23-p101 at 22, every subset a chain; A62-p7 at the budget, 26 positions: of 2^26 subsets the 2^25 without the top
    # position are swept in 3 planes and doubled
    *(Row(f"theorem-{f}{n}-p{p}", cli(f"cvec --family {f} --n {n} --p {p} --method theorem"), timeout=60, at=at)
      for f, n, p, at in (("A", 49, 3, None), ("D", 140, 7, None), ("A", 23, 101, None), ("A", 62, 7, "cvec.SWEEP_MAX_BITS"))),
    # the theorem sweep against the naive one at supports of 16, 20, 19, 14, 19, 20, 25 and 26 positions in 2, 3, 3, 1, 4,
    # 8, 2 and 8 bit planes, and D26-p13, where the naive sweep keeps 3 of its 25 positions
    *(row for query in (("A", 23, 3), ("B", 20, 7), ("D", 23, 5), ("A", 23, 2), ("D", 22, 13), ("B", 20, 131), ("D", 26, 13),
                        ("A", 26, 3), ("B", 26, 131))
      for row in pair("theorem", "naive", *query)),
    Row("theorem-past-the-naive-budget", check("test_cvec", "check_theorem_past_the_naive_budget()"), timeout=60),
    *(row for f, n in (("A", 63423), ("B", 63423), ("D", 59052)) for row in pair("closed", "theorem", f, n, 3)),
    Row("shape-memo", check("test_cvec", "check_shape_rule_table()"), timeout=60),
    # the points of tier-1 tests too large to run on every pass: each test's check with at_size=True
    *(Row(f"digests-{entry}", check("test_answer_digests", f"check_digests({entry!r})"), timeout=timeout)
      for entry, timeout in (("cvec.closed.edge", 60), ("cvec.theorem.edge", 60), ("cvec.theorem.wide.edge", 120))),
    Row("decimal-at-size", check("test_cli", "check_decimal(at_size=True)"), timeout=60),
    Row("term-table-at-size", check("test_cvec", "check_term_table(at_size=True)"), timeout=60),
    Row("spread-at-size", check("test_cvec", "check_spread(at_size=True)"), timeout=60),
    Row("mutants", ["scripts/mutants.py"], timeout=120),
    *(Row(f"kernel-{f}{n}-p{p}", check("test_cvec", f"check_kernel_at_size({f!r}, {n}, {p})"), cap, timeout) for m, cap, timeout in
      ((25, 400000, 120), (26, 600000, 120)) for f, n in (("A", m + 1), ("B", m), ("D", m)) for p in (3, 131, 257)),
    Row("digits-support_set-3^200000+1", api("assert support_set('A', 3**200000 + 1, 3) == (1, 3**200000)")),
    Row("digits-macdonald-3^200000+1", api("assert macdonald_mp(3**200000 + 1, 3) == 3**200000")),
    # counts of about 4.8 10^6 bits, printed in decimal: the command line has no cap of its own on printing a vector yet
    # (ROADMAP item 5)
    Row("cvec-A-3^14-json", cli("cvec --family A --n 4782969 --p 3 --format json")),
    Row("ribbon-A-500000,500000-mod", cli("ribbon --family A --alpha 500000,500000 --mod 1000000007")),
    Row("ribbon-A-1000,3053-mod2053", cli("ribbon --family A --alpha 1000,3053 --mod 2053"), stdout="1205"),
    # a part of 5000 digits, past the interpreter's int() limit, under the complement budget
    Row("ribbon-A-5000-digits,1-mod3", cli(f"ribbon --family A --alpha {'1' * 5000},1 --mod 3"), stdout="2"),
    Row("ribbon-A-50000-digits,1-mod1000003", cli(f"ribbon --family A --alpha {'1' * 50000},1 --mod 1000003"), stdout="972777"),
    *(past(name, cli(line), *names.split()) for name, names, line in (row.split("|") for row in (  # name|budgets|line
        "macdonald-cost-digit|cvec.MACDONALD_COST_MAX|macdonald --n 1000000000 --p 1000000007",  # one digit 10^9 below p
        "macdonald-cost|cvec.MACDONALD_COST_MAX|macdonald --n 1018081000 --p 1009",
        # an n past the interpreter's int() limit, refused after its digits are read
        "macdonald-5000-digits|cvec.MACDONALD_COST_MAX|macdonald --p 3 --n " + "1" * 5000,
        "diagram-rank|coxeter.DIAGRAM_MAX_RANK|coxeter --group A1000000000 --subset 1",
        "diagram-rank-5000-digits|coxeter.DIAGRAM_MAX_RANK|coxeter --group A" + "1" * 5000,
        "support|cvec.SWEEP_MAX_BITS|cvec --family A --n 1594322 --p 3",
        "sweep-B62-p7|cvec.SWEEP_MAX_BITS|cvec --family B --n 62 --p 7",  # a support of 27 positions
        "result-2^40|cvec.RESULT_BITS_MAX|cvec --family A --n 1099511627776 --p 2",
        "result-2^32+16|cvec.RESULT_BITS_MAX|cvec --family A --n 4294967312 --p 2",
        "closed-naive|cvec.SWEEP_MAX_BITS|cvec --family A --n 5050 --p 101 --method closed",
        "usage-family||cvec --family Q --n 4 --p 3", "usage-no-command||",
        "usage-subset-with-p||coxeter --group B3 --subset 0 --p 5",
        "tally|arith.TALLY_MAX_BITS|cvec --family A --n 5 --p 67108879", "subset-rank|coxeter.SUBSET_MAX_RANK|coxeter --group A19",
        "miller-rabin|arith.MILLER_RABIN_LIMIT|cvec --family A --n 5 --p 618970019642690137449562111"))),
    # the largest prime under 2^26: a vector of 67,108,859 entries
    Row("tally-A2-p67108859", api("print(sum(cvec('A', 2, 67108859)))"), 1500000, 60, stdout="2", at="arith.TALLY_MAX_BITS"),
    Row("result-A-2^32-p2", api("print(max(cvec('A', 2**32, 2)).bit_length())"), 1000000, stdout=str(2**32), at="cvec.RESULT_BITS_MAX"),
    Row("complement-2^21+1", api("print(len(Composition((2**21 + 1,)).complement()))"), stdout="2097153",
        at="compositions.COMPLEMENT_MAX_POSITIONS"),
    Row("coxeter-A10000-subset", cli("coxeter --group A10000 --subset 1,2"), at="coxeter.DIAGRAM_MAX_RANK"),
    Row("macdonald-1000-p1009", cli("macdonald --n 1000 --p 1009"), stdout="24061467864032622473692149727991"),
    # the cost budget: one digit 2466 below p, 1.5 10^10 bit steps, the largest lone digit that fits, and digit 1000 at
    # p^1, 1.0 10^10
    Row("macdonald-2466-p2467", cli("macdonald --n 2466 --p 2467"), stdout="1213040219743698104212153283094735988868458164856735",
        at="cvec.MACDONALD_COST_MAX"),
    Row("macdonald-1009000-p1009", cli("macdonald --n 1009000 --p 1009"), at="cvec.MACDONALD_COST_MAX"),
    # the largest prime below the Miller-Rabin limit
    Row("macdonald-5-p-at-limit", cli("macdonald --n 5 --p 3317044064679887385961813"), stdout="7", at="arith.MILLER_RABIN_LIMIT"),
    Row("support_set-n-of-2^19-bits", api("assert support_set('A', 2**524287 + 1, 2) == (1, 2**524287)"), at="cvec.SUPPORT_N_BITS_MAX"),
    Row("support_set-2^22-1-p2", api("print(len(support_set('A', 2**22 - 1, 2)))"), 600000, stdout="4194302",
        at="cvec.SUPPORT_SET_BITS_MAX"),
    # refused before any digit of n is read: most of each row's time builds n
    past("support_set-3^10^7+1", api("support_set('A', 3**10**7 + 1, 3)"), "cvec.SUPPORT_N_BITS_MAX"),
    past("macdonald-3^10^7+1", api("macdonald_mp(3**10**7 + 1, 3)"), "cvec.MACDONALD_COST_MAX"),
    # 18 and 22 digits 1, 1500 places apart: 2^18 - 2 and 2^22 - 2 positions of about 40,000 and 50,000 bits
    *(past(f"support_set-{k}-places", api(f"support_set('A', sum(3**(1500 * j) for j in range({k})), 3)"), "cvec.SUPPORT_SET_BITS_MAX")
      for k in (18, 22)),
    past("oracle-A10", api("oracle_descent_class_sizes('A', 10)"), "ribbon.ORACLE_MAX_N"),
    past("complement-2^21+2", api("Composition((2**21 + 2,)).complement()"), "compositions.COMPLEMENT_MAX_POSITIONS"),
]


def _signal_group(group, sig):
    # whether a process of the group was left to signal
    try:
        os.killpg(group, sig)
    except ProcessLookupError:
        return False
    return True


def run(row, outputs):
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        started = time.perf_counter()
        child = subprocess.Popen([sys.executable, *row.argv], cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                 start_new_session=True,
                                 preexec_fn=row.cap and (lambda: resource.setrlimit(resource.RLIMIT_AS, (row.cap << 10,) * 2)))
        # past its timeout a row's session gets SIGTERM, so that its children stop and clean up too, and whatever is left of
        # it GRACE seconds later SIGKILL; by alarms, with no thread, as preexec_fn needs
        signals = [signal.SIGTERM, signal.SIGKILL]

        def stop(*_):
            _signal_group(child.pid, signals.pop(0))
            signal.alarm(GRACE if signals else 0)
        signal.signal(signal.SIGALRM, stop)
        signal.alarm(row.timeout)
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:  # the runner itself is stopped, say by ^C, which the row's own session does not get
            _signal_group(child.pid, signal.SIGKILL)
            raise
        while len(signals) == 1 and _signal_group(child.pid, 0):  # the child stopped on SIGTERM, some of its session not yet
            time.sleep(0.05)
        signal.alarm(0)
        child.returncode = code = os.waitstatus_to_exitcode(status)
        seconds = time.perf_counter() - started
        text, errors = (file.seek(0) or file.read().decode() for file in (out, err))
    passed = code == row.code and row.stdout in (None, text.strip()) and all(name in errors for name in row.names)
    if passed and row.partner:  # a partner that failed kept no output
        passed = json.loads(text)["vector"] == json.loads(outputs[row.partner]).get("vector")
    outputs[row.name] = text if passed else "{}"
    record = {"name": row.name, "seconds": round(seconds, 3), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
              "code": code, "pass": passed, **({} if passed else {"output": (text + errors)[-2000:]})}
    print(json.dumps(record), flush=True)
    return record


if __name__ == "__main__":
    outputs = {}
    sys.exit(0 if all([run(row, outputs)["pass"] for row in ROWS]) else 1)
