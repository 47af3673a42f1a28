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

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

OVERSAMPLING = 16  # receiver samples per bit; UsartRx.sample's & 15 and >> 4 assume 16


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


def _check_finite_positive(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


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
        _check_finite_positive("fosc", self.fosc)
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

    Raises ValueError naming fosc or target unless it is finite and positive,
    and SpbrgRangeError when the rounded divisor falls outside 0..255.
    """
    _check_finite_positive("fosc", fosc)
    _check_finite_positive("target", target)
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
    """Double-buffered transmitter: TXREG holds the next frame, the TSR shifts
    out the bits of the current one.

    One bit queue holds the TSR's bits, then TXREG's.  Every frame is
    frame_bits long, so TXREG holds a byte exactly when the queue holds more
    than one frame: txif ("TXREG empty") is a queue of at most frame_bits,
    and trmt ("TSR empty") an empty one.  A load into an idle transmitter
    goes straight to the TSR; a second quick load waits behind it, so frames
    go out back-to-back.
    """

    def __init__(self, cfg: UsartConfig):
        self.cfg = cfg
        self._frame_bits = cfg.frame_bits
        self._bits: deque[int] = deque()

    @property
    def txif(self) -> bool:
        return len(self._bits) <= self._frame_bits

    @property
    def trmt(self) -> bool:
        return not self._bits

    def load(self, byte: int, ninth: int | None = None) -> None:
        """Write TXREG.  Raises TxBufferFullError if it still holds data."""
        if not self.txif:
            raise TxBufferFullError("TXREG already holds an unsent byte")
        self._bits.extend(frame_encode(byte, ninth, self.cfg))

    def tick(self) -> int:
        """Advance one bit period and return the line level (idle is 1)."""
        return self._bits.popleft() if self._bits else 1


class UsartRx:
    """x16-oversampled receiver with a two-deep RCREG FIFO.

    One counter runs from the START edge, and the line is sampled at
    sub-sample 8 + 16k: k = 0 confirms START (high there is a glitch, and
    hunting resumes), k = 1..data_bits shifts in the data LSb first, and the
    next is STOP, low meaning a framing error.  A completed word enters the
    FIFO unless it is full, in which case OERR is set, the word is lost, and
    all further transfers are inhibited until the overrun is cleared (CREN
    cycled).
    """

    def __init__(self, cfg: UsartConfig):
        self.cfg = cfg
        self.oerr = False
        self._fifo: deque[tuple[int, bool]] = deque()
        self._prev: int | None = None
        self._sub: int | None = None  # sub-samples since the START edge; None while hunting
        self._shift = 0
        self._stop_sub = 8 + OVERSAMPLING * (cfg.data_bits + 1)

    @property
    def rcif(self) -> bool:
        return bool(self._fifo)

    @property
    def fifo_depth(self) -> int:
        return len(self._fifo)

    def clear_overrun(self) -> None:
        """Clear OERR by cycling CREN: the shifter resets, the FIFO contents survive."""
        self._sub = self._prev = None
        self.oerr = False

    def sample(self, level: int) -> None:
        """Consume one line sample; call once per 1/16 bit period."""
        level = 1 if level else 0
        sub = self._sub
        if sub is None:
            if self._prev == 1 and level == 0:
                self._sub, self._shift = 0, 0
        else:
            sub += 1
            self._sub = sub
            if sub & 15 == 8:
                if sub == self._stop_sub:
                    self._deliver(self._shift, ferr=(level == 0))
                    self._sub = None
                elif sub > 8:
                    self._shift |= level << ((sub >> 4) - 1)  # data bit k-1 at 8 + 16k
                elif level:
                    self._sub = None  # glitch, not a real START
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

