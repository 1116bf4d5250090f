(* must flag: [rt.]-namespaced attributes that Rt_prelude.Annot.all does not
   register; a misspelt name would silently switch its analysis off *)
let hot_typo x = x + 1 [@@rt.hto]
let guarded = ref 0 [@rt.guarded "m"]

(* must pass: a registered name, and attributes outside the namespace *)
let cold x = x [@@rt.cold]
let inlined x = x [@@inline]
