open Omflp_prelude
open Omflp_commodity
open Omflp_metric
open Omflp_instance
open Omflp_core

let check_float tol = Alcotest.(check (float tol))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let line_instance seed =
  let rng = Splitmix.of_int seed in
  Generators.line rng ~n_sites:6 ~n_requests:12 ~n_commodities:4 ~length:20.0
    ~demand:(Demand.Bernoulli { p = 0.5 })
    ~cost:(fun ~n_commodities ~n_sites ->
      Cost_function.power_law ~n_commodities ~n_sites ~x:1.0)

(* ---------- INDEP ---------- *)

let test_indep_only_small () =
  let run = Simulator.run (module Indep_baseline) (line_instance 1) in
  check_int "no large" 0 (Run.n_large run);
  check_int "all small" (List.length run.Run.facilities) (Run.n_small run)

let test_indep_matches_fotakis_on_one_commodity () =
  (* With |S| = 1 INDEP is exactly one Fotakis instance. *)
  let rng = Splitmix.of_int 2 in
  let positions = Array.init 5 (fun _ -> Sampler.uniform_float rng ~lo:0.0 ~hi:20.0) in
  let metric = Finite_metric.line positions in
  let cost = Cost_function.linear ~n_commodities:1 ~n_sites:5 ~per_commodity:3.0 in
  let sites = List.init 10 (fun _ -> Splitmix.int rng 5) in
  let requests =
    Array.of_list
      (List.map
         (fun site ->
           Request.make ~site ~demand:(Cset.singleton ~n_commodities:1 0))
         sites)
  in
  let inst = Instance.make ~name:"1-commodity" ~metric ~cost ~requests in
  let indep = Simulator.run (module Indep_baseline) inst in
  let fot = Omflp_ofl.Fotakis_pd.create metric ~opening_costs:(Array.make 5 3.0) in
  List.iter (fun s -> ignore (Omflp_ofl.Fotakis_pd.step fot s)) sites;
  let snap = Omflp_ofl.Fotakis_pd.snapshot fot in
  check_float 1e-9 "same total cost"
    (Omflp_ofl.Ofl_types.total_cost snap)
    (Run.total_cost indep)

(* FOTAKIS-OFL steps each commodity through the same Fotakis event as
   INDEP; on the golden OMFLP scenarios their runs are the same
   decisions, facility for facility. *)
let test_indep_equals_fotakis_ofl_on_golden () =
  for index = 0 to 29 do
    let sc = Omflp_check.Scenario.golden ~master_seed:0xD16E57 ~index in
    let digest algo =
      let run =
        Simulator.run ~seed:sc.Omflp_check.Scenario.algo_seed ~check:false algo
          sc.Omflp_check.Scenario.instance
      in
      Omflp_check.Oracle.run_digest { run with Run.algorithm = "" }
    in
    Alcotest.(check string)
      (Printf.sprintf "golden scenario %d" index)
      (digest (module Indep_baseline))
      (digest (module Ofl_adapter.Fotakis_ofl))
  done

let test_indep_pays_per_commodity () =
  (* Single point, both commodities in one request: INDEP opens two small
     facilities even though a shared one would be cheaper. *)
  let metric = Finite_metric.single_point () in
  let cost = Cost_function.constant ~n_commodities:2 ~n_sites:1 ~cost:5.0 in
  let inst =
    Instance.make ~name:"pair" ~metric ~cost
      ~requests:[| Request.make ~site:0 ~demand:(Cset.full ~n_commodities:2) |]
  in
  let run = Simulator.run (module Indep_baseline) inst in
  check_int "two facilities" 2 (List.length run.Run.facilities);
  check_float 1e-9 "pays twice" 10.0 (Run.total_cost run)

(* ---------- ALL-LARGE ---------- *)

let test_all_large_only_large () =
  let run = Simulator.run (module All_large_baseline) (line_instance 3) in
  check_int "no small" 0 (Run.n_small run);
  check_bool "at least one" true (Run.n_large run >= 1)

let test_all_large_single_point () =
  (* Always pays the full configuration once, then connects for free. *)
  let metric = Finite_metric.single_point () in
  let cost = Cost_function.linear ~n_commodities:4 ~n_sites:1 ~per_commodity:1.0 in
  let r = Request.make ~site:0 ~demand:(Cset.singleton ~n_commodities:4 0) in
  let inst = Instance.make ~name:"x" ~metric ~cost ~requests:[| r; r; r |] in
  let run = Simulator.run (module All_large_baseline) inst in
  check_int "one facility" 1 (List.length run.Run.facilities);
  check_float 1e-9 "full cost" 4.0 (Run.total_cost run)

(* ---------- GREEDY ---------- *)

let test_greedy_validates () =
  ignore (Simulator.run (module Greedy_baseline) (line_instance 4))

let test_greedy_opens_demand_config () =
  (* First request on a single point: cheapest option is its own demand
     configuration. *)
  let metric = Finite_metric.single_point () in
  let cost = Cost_function.power_law ~n_commodities:4 ~n_sites:1 ~x:1.0 in
  let inst =
    Instance.make ~name:"g" ~metric ~cost
      ~requests:
        [| Request.make ~site:0 ~demand:(Cset.of_list ~n_commodities:4 [ 0; 1 ]) |]
  in
  let run = Simulator.run (module Greedy_baseline) inst in
  check_float 1e-9 "sqrt 2" (sqrt 2.0) (Run.total_cost run);
  check_int "one facility" 1 (List.length run.Run.facilities)

let test_greedy_reuses_facility () =
  let metric = Finite_metric.single_point () in
  let cost = Cost_function.power_law ~n_commodities:4 ~n_sites:1 ~x:1.0 in
  let r = Request.make ~site:0 ~demand:(Cset.of_list ~n_commodities:4 [ 0; 1 ]) in
  let inst = Instance.make ~name:"g2" ~metric ~cost ~requests:[| r; r |] in
  let run = Simulator.run (module Greedy_baseline) inst in
  check_float 1e-9 "no second purchase" (sqrt 2.0) (Run.total_cost run)

(* ---------- Cross-algorithm comparisons ---------- *)

let test_linear_cost_indep_equals_pd () =
  (* Linear construction cost: combining commodities brings no advantage
     to OPT, and PD-OMFLP stays within a constant factor of the
     per-commodity baseline (Section 3.3, x = 2). PD can still reinvest
     pooled duals into large facilities (Constraint (4)), so per-instance
     domination does not hold — only a constant-factor relation. *)
  for seed = 0 to 5 do
    let rng = Splitmix.of_int (100 + seed) in
    let inst =
      Generators.line rng ~n_sites:5 ~n_requests:10 ~n_commodities:3
        ~length:15.0
        ~demand:(Demand.Bernoulli { p = 0.5 })
        ~cost:(fun ~n_commodities ~n_sites ->
          Cost_function.linear ~n_commodities ~n_sites ~per_commodity:2.0)
    in
    let pd = Simulator.run (module Pd_omflp) inst in
    let indep = Simulator.run (module Indep_baseline) inst in
    check_bool
      (Printf.sprintf "seed %d: pd within 4x of indep" seed)
      true
      (Run.total_cost pd <= (4.0 *. Run.total_cost indep) +. 1e-6)
  done

let test_theorem2_separation () =
  (* |S'| = |S| regime: predicting algorithms beat non-predicting ones by
     a Theta(sqrt|S|) factor. *)
  let rng = Splitmix.of_int 8 in
  let inst =
    Generators.single_point_adversary rng ~n_commodities:64
      ~cost:Cost_function.theorem2 ~n_requested:64
  in
  let pd = Run.total_cost (Simulator.run (module Pd_omflp) inst) in
  let indep = Run.total_cost (Simulator.run (module Indep_baseline) inst) in
  let greedy = Run.total_cost (Simulator.run (module Greedy_baseline) inst) in
  check_float 1e-9 "indep pays |S|" 64.0 indep;
  check_float 1e-9 "greedy pays |S|" 64.0 greedy;
  check_bool "pd four times better" true (pd *. 4.0 <= indep +. 1e-9)

let () =
  Alcotest.run "baselines"
    [
      ( "indep",
        [
          Alcotest.test_case "only small facilities" `Quick test_indep_only_small;
          Alcotest.test_case "matches Fotakis (|S|=1)" `Quick
            test_indep_matches_fotakis_on_one_commodity;
          Alcotest.test_case "pays per commodity" `Quick test_indep_pays_per_commodity;
          Alcotest.test_case "equals FOTAKIS-OFL on the golden scenarios"
            `Quick test_indep_equals_fotakis_ofl_on_golden;
        ] );
      ( "all_large",
        [
          Alcotest.test_case "only large facilities" `Quick test_all_large_only_large;
          Alcotest.test_case "single point" `Quick test_all_large_single_point;
        ] );
      ( "greedy",
        [
          Alcotest.test_case "validates" `Quick test_greedy_validates;
          Alcotest.test_case "opens demand config" `Quick test_greedy_opens_demand_config;
          Alcotest.test_case "reuses facility" `Quick test_greedy_reuses_facility;
        ] );
      ( "comparisons",
        [
          Alcotest.test_case "linear: PD <= INDEP" `Quick
            test_linear_cost_indep_equals_pd;
          Alcotest.test_case "theorem2 separation" `Quick test_theorem2_separation;
        ] );
    ]
