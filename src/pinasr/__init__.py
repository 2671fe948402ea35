"""Factored Mandarin ASR decoding toolkit.

Recognition: CTC prefix beam search over pinyin units with n-gram LM
shallow fusion. Transcription: homophone-lattice decoding under a
character LM. Plus corpus preparation, ambiguity statistics, CER/UER
scoring, and a synthetic emission generator so the whole chain runs
without an acoustic model.
"""

__version__ = "0.1.0"
