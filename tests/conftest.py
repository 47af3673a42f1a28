import pytest

from iptsim.config import build_config
from iptsim.modem import RxParams, TxParams


def bits_to_levels_x16(bits) -> list[int]:
    """Expand bit-period levels onto the USART receiver's x16 sample grid."""
    out: list[int] = []
    for b in bits:
        out.extend([1 if b else 0] * 16)
    return out


@pytest.fixture(scope="session")
def baseline_cfg():
    """Fully resolved built-in baseline scenario."""
    return build_config()


@pytest.fixture()
def tx_params():
    return TxParams(carrier_freq=10e3, sample_rate=1e6, bit_rate=250,
                    vcc=12.0, rc_load=100.0, ic_on=0.1)


@pytest.fixture()
def rx_params():
    # Threshold at 30% of the settled unit-carrier envelope (2/pi).
    return RxParams(hf_cutoff=20e3, envelope_tau=400e-6,
                    threshold=0.3 * 2 / 3.141592653589793, v_logic_high=5.0)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome, label in (("passed", "PASS"), ("failed", "FAIL")):
        for rep in terminalreporter.stats.get(outcome, []):
            if "test_acceptance" in rep.nodeid and rep.when == "call":
                name = rep.nodeid.split("::")[-1]
                lines.append((name, label))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, label in sorted(lines):
            terminalreporter.write_line(f"{label}  {name}")
