"""Mono 16-bit PCM WAV output."""

from __future__ import annotations

import wave

import numpy as np


def save_wav(path: str, samples: np.ndarray, sample_rate: float) -> None:
    """Write int16 samples, and no other dtype, as a mono 16-bit PCM WAV file."""
    if samples.dtype != np.int16:
        raise ValueError(f"WAV samples must be int16, got dtype {samples.dtype}")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(int(round(sample_rate)))
        fh.writeframes(samples.tobytes())

