"""Data shuffling strategies for SGD (Section 3 baselines + CorgiPile ablation)."""

from .base import ShuffleStrategy, StrategyTraits, epoch_rng
from .baselines import EpochShuffle, MRSShuffle, NoShuffle, ShuffleOnce, SlidingWindowShuffle
from .block_only import BlockOnlyShuffle
from .corgi2 import Corgi2Shuffle, corgi2_offline_order
from .learned import BlockReshuffle, BlockReversal
from .registry import STRATEGY_NAMES, make_strategy

__all__ = [
    "ShuffleStrategy",
    "StrategyTraits",
    "epoch_rng",
    "NoShuffle",
    "ShuffleOnce",
    "EpochShuffle",
    "SlidingWindowShuffle",
    "MRSShuffle",
    "BlockOnlyShuffle",
    "BlockReshuffle",
    "BlockReversal",
    "Corgi2Shuffle",
    "corgi2_offline_order",
    "STRATEGY_NAMES",
    "make_strategy",
]
