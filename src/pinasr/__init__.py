"""Factored Mandarin ASR decoding toolkit.

Recognition: CTC prefix beam search over pinyin units with n-gram LM
shallow fusion. Transcription: homophone-lattice decoding under a
character LM. Plus corpus preparation, ambiguity statistics, CER/UER
scoring, and a synthetic emission generator so the whole chain runs
without an acoustic model.
"""

__version__ = "0.1.0"

from .ambiguity import MappingStats, mapping_stats, stats_report
from .corpus import ParallelCorpus, build_parallel, filter_sentences
from .ctc import (
    DecoderConfig,
    EmissionMatrix,
    collapse_alignment,
    greedy_decode,
    prefix_beam_search,
)
from .metrics import ScoreReport, edit_distance, error_rate, tone_stripped_rescore
from .ngram_lm import NGramModel, read_arpa, train, write_arpa
from .pinyin import (
    PronunciationLexicon,
    Syllable,
    SyllableInventory,
    hanzi_to_pinyin,
    parse_syllable,
    strip_tone,
)
from .simulate import SimConfig, synth_emissions
from .transcriber import (
    HomophoneLattice,
    TranscriptionResult,
    beam_transcribe,
    build_lattice_lenient,
)
