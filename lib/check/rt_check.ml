module Corpus = Corpus
module Fuzz = Fuzz
module Instance = Instance
module Json = Rt_prelude.Json
module Laws = Laws
module Oracle = Oracle
