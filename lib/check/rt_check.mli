(** Differential-oracle and metamorphic conformance harness.

    [Json] is {!Rt_prelude.Json}, re-exported for readers that still name
    it [Rt_check.Json] (the benchmark's catalogue test). *)

module Corpus = Corpus
module Fuzz = Fuzz
module Instance = Instance
module Json = Rt_prelude.Json
module Laws = Laws
module Oracle = Oracle
