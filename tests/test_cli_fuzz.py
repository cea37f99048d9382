"""Random --set combinations through ``cli.main``, in all four modes.

Every command line must end in exit 0, 1 or 2, with at most one ``error:``
line on stderr, no traceback and no ``RuntimeWarning`` (numpy's overflow
and invalid-value warnings among them).
"""

import contextlib
import io
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ralab.cli import main

# Values a --set may carry.  Every key can take any of the malformed ones;
# each also has values that parse and pass the range checks or just miss
# them.  Durations, slot lengths, populations, rates and periods stay small
# enough that a simulated case runs in well under a second: a run costs
# about (packets per device) x (devices), whatever else is set.  The
# exceptions are 1e308 ms at 1 ms slots and a rate of 1e16 per s, which the
# simulator refuses as work over its cap.
MALFORMED = ("", "nan", "inf", "-inf", "-1", "0", "1e308", "1e-300", "1.5", "x")
KEY_VALUES = {
    "duration_ms": ("0.5", "37.5", "120", "250"),
    "seed": ("1", "7", str(2 ** 64)),
    "t_tti_ms": ("0.1", "0.125", "0.25", "0.5", "1.0"),
    "t_p": ("1", "2", "3", "4"),
    "n_total": ("2", "12", "30", "64"),
    "n_cf": ("2", "10", "20"),
    "n_cr": ("1", "2", "4", "9"),
    "estimator_mode": ("on", "off", "oracle", "maybe"),
    "detection": ("model", "perfect", "exact"),
    "ids_per_cell": ("1", "3", "10"),
    "max_attempts": ("1", "3", "10", "40"),
    "rar_window_ms": ("0.5", "2.5", "40"),
    "backoff_avg_ms": ("0.5", "5", "400"),
    "conres_timer_ms": ("0.5", "24", "400"),
    "t_inactive_ms": ("0.5", "5", "400"),
    "t_initial_ms": ("0.5", "50", "5000"),
    "t_up_ms": ("0.5", "3", "40"),
    "r_threshold": ("2", "3", "5", "10"),
    "var_threshold": ("0.1", "5", "1e6"),
    "traffic.twostep.n_periodic": ("1", "5", "20"),
    "traffic.twostep.n_event": ("1", "5", "20"),
    "traffic.twostep.period_ms": ("0.5", "3.7", "47", "77.3", "1e308"),
    "traffic.twostep.event_rate_per_s": ("0.5", "6.8", "900", "1e16"),
    "traffic.fourstep.n_ue": ("1", "5", "20"),
    "traffic.fourstep.rate_per_s": ("0.5", "6.8", "900", "1e16"),
}

# a small population of each kind, which the drawn pairs may override
BASE = ("duration_ms=200", "traffic.twostep.n_event=5", "traffic.fourstep.n_ue=5",
        "traffic.fourstep.rate_per_s=6.8")


@st.composite
def command_lines(draw):
    """A CLI command line of one mode with a few drawn --set pairs."""
    mode = draw(st.sampled_from(("simulate", "analyze", "optimize", "validate")))
    argv = ["--mode", mode]
    for pair in BASE:
        argv += ["--set", pair]
    for key in draw(st.lists(st.sampled_from(sorted(KEY_VALUES)), max_size=5)):
        # one value in four is malformed, so most lines get past parsing
        if draw(st.integers(min_value=0, max_value=3)):
            value = draw(st.sampled_from(KEY_VALUES[key]))
        else:
            value = draw(st.sampled_from(MALFORMED))
        argv += ["--set", f"{key}={value}"]
    seeds = draw(st.sampled_from(((), ("1",), ("1", "2"), ("3", "3"))))
    if seeds:
        argv += ["--seed", *seeds]
    if mode == "optimize":
        grid = draw(st.sampled_from((None, "n_cr=2..6", "n_cr=6..2", "n_cr=1..80")))
        if grid:
            argv += ["--grid", grid]
    return argv, draw(st.booleans())


# Lines the draws reach only by chance.  At 1 ms slots, a horizon far over
# the simulator's work cap, and one just over it, each reach the cap's slot
# half: with no device, or (validate needs one) with a device so slow that
# the slots, not its arrivals, make the largest work term.  A contention
# timer of 5e307 ms overflows the four-step chain's total time at tau = 1.
SLOT_CAP_FAR = ["--set", "t_tti_ms=1.0", "--set", "duration_ms=1e308"]
SLOW_DEVICE = ["--set", "traffic.fourstep.n_ue=1", "--set", "traffic.fourstep.rate_per_s=1e-300"]
SLOT_CAP_NEAR = ["--set", "t_tti_ms=1.0", "--set", "duration_ms=2e9"]
ANALYZE_OVERFLOW = ["--set", "traffic.fourstep.n_ue=2000",
                    "--set", "traffic.fourstep.rate_per_s=5000",
                    "--set", "n_cr=50", "--set", "conres_timer_ms=5e307"]


class TestCommandLineFuzz:
    @given(case=command_lines())
    @example(case=(["--mode", "simulate", *SLOT_CAP_FAR], False))
    @example(case=(["--mode", "validate", *SLOT_CAP_FAR, *SLOW_DEVICE], False))
    @example(case=(["--mode", "simulate", *SLOT_CAP_NEAR], False))
    @example(case=(["--mode", "analyze", *ANALYZE_OVERFLOW], False))
    @settings(max_examples=200, deadline=None)
    def test_every_command_line_ends_cleanly(self, case):
        argv, with_out = case
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + (["--out", tmp] if with_out else []))
        stderr = err.getvalue()
        runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not runtime, (argv, runtime)
        assert code in (0, 1, 2), (argv, code)
        assert sum(line.startswith("error:") for line in stderr.splitlines()) <= 1, stderr
        assert "Traceback" not in stderr
        assert (code == 1) == stderr.startswith("error: "), (argv, code, stderr)
