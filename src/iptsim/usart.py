"""Software model of the PIC16F877-style USART in asynchronous mode.

Covers the baud-rate generator arithmetic, NRZ framing (START, eight or nine
data bits LSb first, STOP), the double-buffered transmitter (TXREG feeding
the TSR shift register), and the x16-oversampled receiver with its two-deep
RCREG FIFO and OERR/FERR flags.

Time is abstract: the transmitter advances one whole bit period per tick and
the receiver consumes one sample per 1/16 bit period.  Callers bridge real
waveform time onto these grids.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple


class UsartError(Exception):
    """Base class for USART usage errors."""


class TxBufferFullError(UsartError):
    """TXREG written while it still holds an unsent byte."""


class RxFifoEmptyError(UsartError):
    """Receive FIFO read while empty."""


class NinthBitMismatchError(UsartError):
    """Ninth data bit supplied or omitted against the configured mode."""


class SpbrgRangeError(UsartError, ValueError):
    """No SPBRG value in 0..255 reaches the requested baud rate."""


@dataclass(frozen=True)
class UsartConfig:
    """Clocking and framing mode bits.

    In synchronous mode BRGH is ignored by the hardware; it is normalized
    to False here so the divisor arithmetic has a single representation.
    """

    fosc: float          # Hz, oscillator frequency
    spbrg: int           # 0..255 divisor register
    sync: bool = False
    brgh: bool = False
    nine_bit: bool = False

    def __post_init__(self):
        if self.fosc <= 0:
            raise ValueError("fosc must be positive")
        if not 0 <= self.spbrg <= 255:
            raise ValueError(f"spbrg must be in 0..255, got {self.spbrg}")
        if self.sync and self.brgh:
            object.__setattr__(self, "brgh", False)

    @property
    def data_bits(self) -> int:
        return 9 if self.nine_bit else 8

    @property
    def frame_bits(self) -> int:
        """START + data + STOP."""
        return self.data_bits + 2


def _divisor(sync: bool, brgh: bool) -> int:
    if sync:
        return 4
    return 16 if brgh else 64


def actual_baud(cfg: UsartConfig) -> float:
    """Baud rate produced by the generator for this configuration.

    fosc/(64(X+1)) async low speed, fosc/(16(X+1)) async high speed,
    fosc/(4(X+1)) synchronous.
    """
    return cfg.fosc / (_divisor(cfg.sync, cfg.brgh) * (cfg.spbrg + 1))


class BrgResult(NamedTuple):
    spbrg: int
    actual: float     # baud
    error_pct: float  # 100 * (actual - target) / target


def brg_divisor(fosc: float, target: float, sync: bool = False,
                brgh: bool = False) -> BrgResult:
    """Nearest SPBRG value for a target baud rate, with the resulting error.

    Raises SpbrgRangeError when the rounded divisor falls outside 0..255.
    """
    if target <= 0:
        raise ValueError("target baud must be positive")
    d = _divisor(sync, brgh)
    x = round(fosc / (d * target) - 1)
    if not 0 <= x <= 255:
        raise SpbrgRangeError(
            f"target {target} baud needs SPBRG={x}, outside 0..255 "
            f"(fosc={fosc}, divisor {d})")
    actual = actual_baud(UsartConfig(fosc, x, sync, brgh))
    return BrgResult(x, actual, 100.0 * (actual - target) / target)


def frame_encode(byte: int, ninth: int | None, cfg: UsartConfig) -> list[int]:
    """NRZ frame bits for one byte: START(0), data LSb first, STOP(1)."""
    if not 0 <= byte <= 255:
        raise ValueError(f"byte must be in 0..255, got {byte}")
    if cfg.nine_bit:
        if ninth not in (0, 1):
            raise NinthBitMismatchError("nine-bit mode requires ninth bit 0 or 1")
    elif ninth is not None:
        raise NinthBitMismatchError("ninth bit supplied in eight-bit mode")
    bits = [0] + [(byte >> i) & 1 for i in range(8)]
    if cfg.nine_bit:
        bits.append(ninth)
    bits.append(1)
    return bits


class UsartTx:
    """Double-buffered transmitter: TXREG buffer feeding the TSR shifter.

    txif mirrors "TXREG empty", trmt mirrors "TSR empty".  A load into an
    idle, enabled transmitter transfers straight through to the TSR; a
    second quick load parks in TXREG so frames go out back-to-back.
    """

    def __init__(self, cfg: UsartConfig, txen: bool = False):
        self.cfg = cfg
        self.txen = txen
        self._txreg: list[int] | None = None  # the frame bits of the loaded byte
        self._tsr: list[int] | None = None
        self._tsr_idx = 0

    @property
    def txif(self) -> bool:
        return self._txreg is None

    @property
    def trmt(self) -> bool:
        return self._tsr is None

    def set_txen(self, enabled: bool) -> None:
        """Enable or disable transmission; disabling aborts the TSR frame."""
        self.txen = enabled
        if not enabled:
            self._tsr = None
            self._tsr_idx = 0
        else:
            self._maybe_load_tsr()

    def load(self, byte: int, ninth: int | None = None) -> None:
        """Write TXREG.  Raises TxBufferFullError if it still holds data."""
        if self._txreg is not None:
            raise TxBufferFullError("TXREG already holds an unsent byte")
        self._txreg = frame_encode(byte, ninth, self.cfg)
        self._maybe_load_tsr()

    def _maybe_load_tsr(self) -> None:
        if self.txen and self._tsr is None and self._txreg is not None:
            self._tsr = self._txreg
            self._tsr_idx = 0
            self._txreg = None

    def tick(self) -> int:
        """Advance one bit period and return the line level (idle is 1)."""
        if self._tsr is None:
            self._maybe_load_tsr()
            if self._tsr is None:
                return 1
        level = self._tsr[self._tsr_idx]
        self._tsr_idx += 1
        if self._tsr_idx == len(self._tsr):
            # STOP bit just went out; chain the buffered byte if present.
            self._tsr = None
            self._tsr_idx = 0
            self._maybe_load_tsr()
        return level


# Receiver states
_HUNT = 0
_START = 1
_DATA = 2
_STOP = 3


class UsartRx:
    """x16-oversampled receiver with a two-deep RCREG FIFO.

    START detection needs a falling edge confirmed low again at the 8th
    sub-sample; shorter glitches abort the frame.  Data and STOP bits are
    sampled mid-bit.  A completed word enters the FIFO unless it is full,
    in which case OERR is set, the word is lost, and all further transfers
    are inhibited until the overrun is cleared (CREN cycled).
    """

    def __init__(self, cfg: UsartConfig, cren: bool = True):
        self.cfg = cfg
        self.cren = cren
        self.oerr = False
        self._fifo: deque[tuple[int, bool]] = deque()
        self._prev: int | None = None
        self._state = _HUNT
        self._sub = 0
        self._shift = 0
        self._nbits = 0

    @property
    def rcif(self) -> bool:
        return bool(self._fifo)

    @property
    def fifo_depth(self) -> int:
        return len(self._fifo)

    @property
    def ferr(self) -> bool:
        """Framing-error flag of the FIFO head (False when empty)."""
        return self._fifo[0][1] if self._fifo else False

    def set_cren(self, enabled: bool) -> None:
        """Receive enable.  Clearing CREN resets the shifter and OERR."""
        self.cren = enabled
        if not enabled:
            self._reset_shifter()
            self.oerr = False

    def clear_overrun(self) -> None:
        """Clear OERR by cycling CREN; the FIFO contents survive."""
        self.set_cren(False)
        self.set_cren(True)

    def _reset_shifter(self) -> None:
        self._state = _HUNT
        self._sub = 0
        self._shift = 0
        self._nbits = 0
        self._prev = None

    def sample(self, level: int) -> None:
        """Consume one line sample; call once per 1/16 bit period."""
        level = 1 if level else 0
        if not self.cren:
            self._prev = level
            return
        if self._state == _HUNT:
            if self._prev == 1 and level == 0:
                self._state = _START
                self._sub = 0
        elif self._state == _START:
            self._sub += 1
            if self._sub == 8:
                if level == 0:
                    self._state = _DATA
                    self._shift = 0
                    self._nbits = 0
                else:
                    self._state = _HUNT  # glitch, not a real START
        elif self._state == _DATA:
            self._sub += 1
            if self._sub == 8 + 16 * (self._nbits + 1):
                self._shift |= level << self._nbits
                self._nbits += 1
                if self._nbits == self.cfg.data_bits:
                    self._state = _STOP
        elif self._state == _STOP:
            self._sub += 1
            if self._sub == 8 + 16 * (self.cfg.data_bits + 1):
                self._deliver(self._shift, ferr=(level == 0))
                self._state = _HUNT
        self._prev = level

    def _deliver(self, word: int, ferr: bool) -> None:
        if self.oerr:
            return  # transfers inhibited; the word is lost
        if len(self._fifo) < 2:
            self._fifo.append((word, ferr))
        else:
            self.oerr = True  # third word with a full FIFO: overrun, word lost

    def read(self) -> tuple[int, bool]:
        """Pop the FIFO head as (word, framing_error)."""
        if not self._fifo:
            raise RxFifoEmptyError("receive FIFO is empty")
        return self._fifo.popleft()

