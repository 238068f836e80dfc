"""Mono 16-bit PCM WAV output."""

from __future__ import annotations

import wave

import numpy as np


def save_wav(path: str, samples: np.ndarray, sample_rate: float) -> None:
    """Write int16 samples as a mono 16-bit PCM WAV file."""
    data = np.asarray(samples)
    if data.dtype != np.int16:
        data = np.clip(np.rint(data), -32768, 32767).astype(np.int16)
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(int(round(sample_rate)))
        fh.writeframes(data.tobytes())

