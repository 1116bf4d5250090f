(* The processors local search's gap test is stated for: its contract is
   the convexity of [Energy_rate.prepare_energy] up to [s_max], which
   test_speed checks on this list, and test_core runs the planner against
   its unpruned reference on it. The presets in both dormancies, the
   cubic model with and without leakage, ideal domains with a binding
   [s_min], a model with a linear term (numeric critical speed), levels
   1e-7 apart, a uniform level grid, and a random [alpha] in [2, 3]. *)

open Rt_power

let all ~alpha ~p_ind ~sleeps =
  let enable = Processor.Dormant_enable { t_sw = 0.; e_sw = 0. } in
  let xscale_model = Power_model.make ~p_ind:0.08 ~coeff:1.52 ~alpha:3. () in
  [|
    ("xscale enable", Processor.xscale ~dormancy:enable);
    ("xscale disable", Processor.xscale ~dormancy:Processor.Dormant_disable);
    ("xscale_levels enable", Processor.xscale_levels ~dormancy:enable);
    ( "xscale_levels disable",
      Processor.xscale_levels ~dormancy:Processor.Dormant_disable );
    ("cubic", Processor.cubic ());
    ("cubic p_ind 0.1", Processor.cubic ~p_ind:0.1 ());
    ( "ideal s_min 0.4 disable",
      Processor.make ~model:xscale_model
        ~domain:(Processor.Ideal { s_min = 0.4; s_max = 1. })
        ~dormancy:Processor.Dormant_disable );
    ( "ideal s_min 0.4 enable",
      Processor.make ~model:xscale_model
        ~domain:(Processor.Ideal { s_min = 0.4; s_max = 1. })
        ~dormancy:enable );
    ( "linear term",
      Processor.make
        ~model:(Power_model.make ~p_ind:0.05 ~linear:0.3 ~coeff:1. ~alpha:3. ())
        ~domain:(Processor.Ideal { s_min = 0.; s_max = 1. })
        ~dormancy:enable );
    ( "levels 1e-7 apart",
      Processor.make ~model:xscale_model
        ~domain:
          (Processor.Levels [| 0.3; 0.3 +. 1e-7; 0.7; 1. -. 1e-7; 1. |])
        ~dormancy:Processor.Dormant_disable );
    ("uniform_levels 16", Processor.uniform_levels ~n:16 ~p_ind:0.05 ());
    ( Printf.sprintf "alpha %h" alpha,
      Processor.make
        ~model:(Power_model.make ~p_ind ~coeff:1.52 ~alpha ())
        ~domain:(Processor.Ideal { s_min = 0.; s_max = 1. })
        ~dormancy:(if sleeps then enable else Processor.Dormant_disable) );
  |]

let count = Array.length (all ~alpha:3. ~p_ind:0. ~sleeps:false)
