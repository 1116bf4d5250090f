(* must flag: [rt.]-namespaced attributes that Rt_prelude.Annot.all does not
   register; a misspelt name would silently switch its analysis off, and
   rt.lint.ignore is no suppression (pragmas are the one form) *)
let hot_typo x = x + 1 [@@rt.hto]
let guarded = ref 0 [@rt.guarded "m"]
let ignored x = (x < 1.0) [@rt.lint.ignore "float-cmp"]

(* must pass: a registered name, and attributes outside the namespace *)
let cold x = x [@@rt.cold]
let inlined x = x [@@inline]
