let private_helper x = x + 1
let used x = private_helper x
let dead x = x - 1
let test_only x = x * 2
let seam x = x * 2
let via_alias x = x
let via_let_module x = x

module Nested = struct
  let inner x = x
  let inner_dead x = x
end
