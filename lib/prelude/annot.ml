let guarded_by = "rt.guarded_by"
let domain_safe = "rt.domain_safe"
let cross_domain = "rt.cross_domain"
let dim = "rt.dim"
let hot = "rt.hot"
let cold = "rt.cold"
let test_api = "rt.test_api"

let all =
  [ guarded_by; domain_safe; cross_domain; dim; hot; cold; test_api ]
