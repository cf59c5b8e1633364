open Omflp_prelude
open Omflp_metric
open Omflp_ofl

let check_float tol = Alcotest.(check (float tol))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Offline single-commodity facility location OPT by brute force: enumerate
   facility subsets (small site counts only). *)
let offline_opt metric opening_costs request_sites =
  let n = Finite_metric.size metric in
  let best = ref infinity in
  for mask = 1 to (1 lsl n) - 1 do
    let build = ref 0.0 in
    for m = 0 to n - 1 do
      if mask land (1 lsl m) <> 0 then build := !build +. opening_costs.(m)
    done;
    let assign =
      List.fold_left
        (fun acc site ->
          let d = ref infinity in
          for m = 0 to n - 1 do
            if mask land (1 lsl m) <> 0 then
              d := Float.min !d (Finite_metric.dist metric site m)
          done;
          acc +. !d)
        0.0 request_sites
    in
    if !build +. assign < !best then best := !build +. assign
  done;
  !best

let run_algo (module A : Ofl_types.ALGORITHM) metric opening_costs sites =
  let t = A.create metric ~opening_costs in
  List.iter (fun s -> ignore (A.step t s)) sites;
  A.snapshot t

(* ---------- Fotakis primal-dual ---------- *)

let test_fotakis_single_site () =
  let metric = Finite_metric.single_point () in
  let run = run_algo (module Fotakis_pd) metric [| 5.0 |] [ 0; 0; 0 ] in
  check_float 1e-9 "construction" 5.0 run.Ofl_types.construction_cost;
  check_float 1e-9 "assignment" 0.0 run.Ofl_types.assignment_cost;
  check_int "one facility" 1 (List.length run.Ofl_types.facilities)

let test_fotakis_prefers_cheap_site () =
  (* Request at site 0; site 1 nearby and much cheaper to open. *)
  let metric = Finite_metric.line [| 0.0; 1.0 |] in
  let run = run_algo (module Fotakis_pd) metric [| 100.0; 1.0 |] [ 0 ] in
  Alcotest.(check (list int)) "opens site 1" [ 1 ] run.Ofl_types.facilities;
  check_float 1e-9 "assignment = distance" 1.0 run.Ofl_types.assignment_cost

let test_fotakis_connects_when_cheap () =
  let metric = Finite_metric.line [| 0.0; 0.5 |] in
  let run = run_algo (module Fotakis_pd) metric [| 10.0; 10.0 |] [ 0; 1; 0; 1 ] in
  (* After the first facility opens, later nearby requests connect. *)
  check_int "one facility" 1 (List.length run.Ofl_types.facilities)

let test_fotakis_duals_length () =
  let metric = Finite_metric.line [| 0.0; 3.0 |] in
  let t = Fotakis_pd.create metric ~opening_costs:[| 2.0; 2.0 |] in
  ignore (Fotakis_pd.step t 0);
  ignore (Fotakis_pd.step t 1);
  check_int "duals" 2 (List.length (Fotakis_pd.duals t))

let test_fotakis_cost_arity () =
  let metric = Finite_metric.line [| 0.0; 3.0 |] in
  Alcotest.check_raises "arity"
    (Invalid_argument "Fotakis_pd.create: opening_costs arity mismatch")
    (fun () -> ignore (Fotakis_pd.create metric ~opening_costs:[| 1.0 |]))

(* The shared primal–dual event, one row per rule. Each row gives the
   line positions, opening costs, d(·, F), history (newest first) and
   request site, then the expected opening, dual and final bids. *)
let test_fotakis_event_table () =
  let table =
    [ "equal opening prices go to the lowest site",
      [| 0.; 1.; -1. |], [| 10.; 1.; 1. |], (fun _ -> infinity), [], 0,
      Some 1, 2.0, [| 0.; 0.; 0. |]
    ; "a price equal to the connection distance connects at it",
      [| 0.; 1.; -1. |], [| 10.; 1.; 1. |], (fun _ -> 2.0), [], 0,
      None, 2.0, [| 0.; 0.; 0. |]
    ; "a past request bids at most its distance to the served set",
      [| 0.; 1.; 1.5 |], [| 10.; 1.2; 10. |], (fun s -> [| 1.5; 0.5; 0. |].(s)),
      [ { Fotakis_pd.site = 1; dual = 100. } ], 0,
      None, 1.5, [| 0.; 0.5; 0. |]
    ; "an empty history opens at m when d(r,m) + f_m < d(r,F)",
      [| 0.; 1. |], [| 5.; 0.5 |], (fun _ -> 2.0), [], 0,
      Some 1, 1.5, [| 0.; 0. |]
    ] [@ocamlformat "disable"]
  in
  List.iter
    (fun (name, positions, opening, dist_to_served, past, r, opened, dual, bids)
       ->
      let metric = Finite_metric.line positions in
      let scratch = Array.make (Array.length positions) nan in
      let o, p =
        Fotakis_pd.event metric ~bids:scratch ~opening ~dist_to_served past r
      in
      Alcotest.(check (option int)) (name ^ ": opening") opened o;
      check_int (name ^ ": site") r p.Fotakis_pd.site;
      check_float 1e-12 (name ^ ": dual") dual p.Fotakis_pd.dual;
      Alcotest.(check (array (float 1e-12))) (name ^ ": bids") bids scratch)
    table

(* ---------- Meyerson ---------- *)

let test_meyerson_coverage () =
  let metric = Finite_metric.line [| 0.0; 2.0; 7.0 |] in
  let t =
    Meyerson.create_seeded metric ~opening_costs:[| 3.0; 3.0; 3.0 |]
      ~rng:(Splitmix.of_int 1)
  in
  List.iter
    (fun s ->
      let d = Meyerson.step t s in
      check_bool "finite assignment" true (d < infinity))
    [ 0; 1; 2; 0; 1; 2 ];
  let run = Meyerson.snapshot t in
  check_bool "opened something" true (run.Ofl_types.facilities <> [])

let test_meyerson_free_sites () =
  (* Zero-cost facilities: every request should be served at distance 0
     once its own site's class is free. *)
  let metric = Finite_metric.line [| 0.0; 5.0 |] in
  let t =
    Meyerson.create_seeded metric ~opening_costs:[| 0.0; 0.0 |]
      ~rng:(Splitmix.of_int 2)
  in
  check_float 1e-9 "first" 0.0 (Meyerson.step t 0);
  check_float 1e-9 "second" 0.0 (Meyerson.step t 1)

let test_meyerson_deterministic_given_seed () =
  let metric = Finite_metric.line [| 0.0; 1.0; 4.0; 9.0 |] in
  let costs = [| 2.0; 3.0; 2.0; 5.0 |] in
  let go seed =
    let t = Meyerson.create_seeded metric ~opening_costs:costs ~rng:(Splitmix.of_int seed) in
    List.iter (fun s -> ignore (Meyerson.step t s)) [ 0; 2; 3; 1; 0 ];
    Ofl_types.total_cost (Meyerson.snapshot t)
  in
  check_float 1e-12 "same seed, same run" (go 7) (go 7)

(* ---------- Competitiveness on random instances ---------- *)

let random_case seed =
  let rng = Splitmix.of_int seed in
  let n = 2 + Splitmix.int rng 5 in
  let metric =
    Finite_metric.line (Array.init n (fun _ -> Sampler.uniform_float rng ~lo:0.0 ~hi:20.0))
  in
  let costs = Array.init n (fun _ -> Sampler.uniform_float rng ~lo:0.5 ~hi:8.0) in
  let n_req = 1 + Splitmix.int rng 12 in
  let sites = List.init n_req (fun _ -> Splitmix.int rng n) in
  (metric, costs, sites)

let prop_fotakis_competitive =
  (* O(log n) with small constants; assert a generous concrete bound. *)
  QCheck.Test.make ~name:"fotakis within 15*H_n of offline OPT" ~count:100
    QCheck.small_int (fun seed ->
      let metric, costs, sites = random_case seed in
      let run = run_algo (module Fotakis_pd) metric costs sites in
      let opt = offline_opt metric costs sites in
      Ofl_types.total_cost run
      <= (15.0 *. Numerics.harmonic (List.length sites) *. opt) +. 1e-6)

let prop_fotakis_at_least_opt =
  QCheck.Test.make ~name:"online cost >= offline OPT" ~count:100
    QCheck.small_int (fun seed ->
      let metric, costs, sites = random_case seed in
      let run = run_algo (module Fotakis_pd) metric costs sites in
      let opt = offline_opt metric costs sites in
      Ofl_types.total_cost run >= opt -. 1e-6)

let prop_meyerson_competitive_on_average =
  (* Average over seeds; Meyerson is O(log n / log log n) in expectation. *)
  QCheck.Test.make ~name:"meyerson mean within 15*H_n of OPT" ~count:30
    QCheck.small_int (fun seed ->
      let metric, costs, sites = random_case seed in
      let opt = offline_opt metric costs sites in
      let total = ref 0.0 in
      let reps = 20 in
      for r = 1 to reps do
        let t =
          Meyerson.create_seeded metric ~opening_costs:costs
            ~rng:(Splitmix.of_int ((seed * 131) + r))
        in
        List.iter (fun s -> ignore (Meyerson.step t s)) sites;
        total := !total +. Ofl_types.total_cost (Meyerson.snapshot t)
      done;
      !total /. float_of_int reps
      <= (15.0 *. Numerics.harmonic (List.length sites) *. opt) +. 1e-6)

let () =
  Alcotest.run "ofl"
    [
      ( "fotakis_pd",
        [
          Alcotest.test_case "single site" `Quick test_fotakis_single_site;
          Alcotest.test_case "prefers cheap site" `Quick test_fotakis_prefers_cheap_site;
          Alcotest.test_case "connects when cheap" `Quick test_fotakis_connects_when_cheap;
          Alcotest.test_case "duals exposed" `Quick test_fotakis_duals_length;
          Alcotest.test_case "arity validation" `Quick test_fotakis_cost_arity;
          Alcotest.test_case "event rules" `Quick test_fotakis_event_table;
        ] );
      ( "meyerson",
        [
          Alcotest.test_case "coverage" `Quick test_meyerson_coverage;
          Alcotest.test_case "free sites" `Quick test_meyerson_free_sites;
          Alcotest.test_case "seeded determinism" `Quick
            test_meyerson_deterministic_given_seed;
        ] );
      ( "competitiveness",
        [
          QCheck_alcotest.to_alcotest prop_fotakis_competitive;
          QCheck_alcotest.to_alcotest prop_fotakis_at_least_opt;
          QCheck_alcotest.to_alcotest prop_meyerson_competitive_on_average;
        ] );
    ]
