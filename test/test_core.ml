open Omflp_prelude
open Omflp_commodity
open Omflp_metric
open Omflp_instance
open Omflp_core

let check_float tol = Alcotest.(check (float tol))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Facility / Service ---------- *)

let test_offered_of_kind () =
  Alcotest.(check (list int))
    "small" [ 2 ]
    (Cset.elements (Facility.offered_of_kind ~n_commodities:5 (Facility.Small 2)));
  check_int "large" 5
    (Cset.cardinal (Facility.offered_of_kind ~n_commodities:5 Facility.Large))

let test_service_facility_ids () =
  Alcotest.(check (list int))
    "single" [ 3 ]
    (Service.facility_ids (Service.To_single 3));
  Alcotest.(check (list int))
    "dedup" [ 1; 2 ]
    (Service.facility_ids (Service.Per_commodity [ (0, 1); (1, 2); (2, 1) ]))

let test_service_cost_dedup () =
  let metric = Finite_metric.line [| 0.0; 4.0 |] in
  let facility_site = function 1 -> 1 | _ -> 0 in
  (* Two commodities served by the same facility: distance paid once. *)
  let c =
    Service.cost ~facility_site ~metric ~request_site:0
      (Service.Per_commodity [ (0, 1); (1, 1) ])
  in
  check_float 1e-9 "once" 4.0 c;
  let c2 =
    Service.cost ~facility_site ~metric ~request_site:0
      (Service.Per_commodity [ (0, 1); (1, 0) ])
  in
  check_float 1e-9 "distinct facilities" 4.0 c2

let test_service_covers () =
  let offered = function
    | 0 -> Cset.of_list ~n_commodities:4 [ 0; 1 ]
    | _ -> Cset.of_list ~n_commodities:4 [ 2; 3 ]
  in
  let demand = Cset.of_list ~n_commodities:4 [ 0; 2 ] in
  check_bool "covers" true
    (Service.covers ~facility_offered:offered ~demand
       (Service.Per_commodity [ (0, 0); (2, 1) ]));
  check_bool "wrong facility" false
    (Service.covers ~facility_offered:offered ~demand
       (Service.Per_commodity [ (0, 1); (2, 1) ]));
  check_bool "single covers" false
    (Service.covers ~facility_offered:offered ~demand (Service.To_single 0))

(* ---------- Facility_store ---------- *)

let env_of metric ~n_commodities =
  let n_sites = Finite_metric.size metric in
  Problem_env.omflp metric
    (Cost_function.constant ~n_commodities ~n_sites ~cost:1.0)

let mk_store () =
  let metric = Finite_metric.line [| 0.0; 2.0; 5.0 |] in
  Facility_store.create (env_of metric ~n_commodities:3) ~n_commodities:3

let test_store_empty () =
  let store = mk_store () in
  check_bool "no facility" true
    (Facility_store.dist_offering store ~commodity:0 ~from:0 = infinity);
  check_bool "no large" true (Facility_store.dist_large store ~from:0 = infinity);
  check_int "count" 0 (Facility_store.n_facilities store)

let test_store_small_facility () =
  let store = mk_store () in
  let f =
    Facility_store.open_facility store ~site:1 ~kind:(Facility.Small 0)
      ~cost:2.0 ~opened_at:0
  in
  check_int "id" 0 f.Facility.id;
  check_float 1e-9 "dist from 0" 2.0
    (Facility_store.dist_offering store ~commodity:0 ~from:0);
  check_float 1e-9 "dist from 2" 3.0
    (Facility_store.dist_offering store ~commodity:0 ~from:2);
  check_bool "other commodity unserved" true
    (Facility_store.dist_offering store ~commodity:1 ~from:0 = infinity);
  check_bool "not large" true (Facility_store.dist_large store ~from:0 = infinity);
  check_float 1e-9 "construction" 2.0 (Facility_store.construction_cost store)

let test_store_large_facility () =
  let store = mk_store () in
  ignore
    (Facility_store.open_facility store ~site:2 ~kind:Facility.Large ~cost:4.0
       ~opened_at:0);
  for e = 0 to 2 do
    check_float 1e-9
      (Printf.sprintf "commodity %d" e)
      5.0
      (Facility_store.dist_offering store ~commodity:e ~from:0)
  done;
  check_float 1e-9 "large dist" 5.0 (Facility_store.dist_large store ~from:0)

let test_store_nearest_updates () =
  let store = mk_store () in
  ignore
    (Facility_store.open_facility store ~site:2 ~kind:(Facility.Small 1)
       ~cost:1.0 ~opened_at:0);
  ignore
    (Facility_store.open_facility store ~site:0 ~kind:(Facility.Small 1)
       ~cost:1.0 ~opened_at:1);
  let fac, d =
    Option.get (Facility_store.nearest_offering store ~commodity:1 ~from:0)
  in
  check_int "nearest is newer" 1 fac.Facility.id;
  check_float 1e-9 "distance" 0.0 d

let test_store_custom_full_counts_as_large () =
  let store = mk_store () in
  ignore
    (Facility_store.open_facility store ~site:0
       ~kind:(Facility.Custom (Cset.full ~n_commodities:3))
       ~cost:3.0 ~opened_at:0);
  check_float 1e-9 "counts as large" 0.0 (Facility_store.dist_large store ~from:0)

let test_store_service_accounting () =
  let store = mk_store () in
  ignore
    (Facility_store.open_facility store ~site:1 ~kind:Facility.Large ~cost:4.0
       ~opened_at:0);
  Facility_store.record_service store ~request_site:0 (Service.To_single 0);
  check_float 1e-9 "assignment" 2.0 (Facility_store.assignment_cost store);
  check_float 1e-9 "total" 6.0 (Facility_store.total_cost store);
  check_int "services" 1 (List.length (Facility_store.services store))

(* Property: store's nearest tables match brute-force recomputation, on
   line and graph metrics alike. *)
let prop_store_distances =
  QCheck.Test.make ~name:"store distance tables = brute force" ~count:100
    QCheck.small_int (fun seed ->
      let rng = Splitmix.of_int seed in
      let n_sites = 2 + Splitmix.int rng 6 in
      let n_commodities = 1 + Splitmix.int rng 5 in
      let metric =
        if Splitmix.bool rng then
          Finite_metric.line
            (Array.init n_sites (fun _ ->
                 Sampler.uniform_float rng ~lo:0.0 ~hi:30.0))
        else
          Omflp_metric.Metric_gen.random_graph_metric rng ~n:n_sites
            ~extra_edges:2 ~max_weight:5.0
      in
      let store =
        Facility_store.create (env_of metric ~n_commodities) ~n_commodities
      in
      let facs = ref [] in
      for i = 0 to 6 do
        let site = Splitmix.int rng n_sites in
        let kind =
          if Splitmix.bool rng then Facility.Large
          else Facility.Small (Splitmix.int rng n_commodities)
        in
        let f =
          Facility_store.open_facility store ~site ~kind ~cost:1.0 ~opened_at:i
        in
        facs := f :: !facs
      done;
      let ok = ref true in
      for from = 0 to n_sites - 1 do
        for e = 0 to n_commodities - 1 do
          let brute =
            List.fold_left
              (fun acc (f : Facility.t) ->
                if Cset.mem f.offered e then
                  Float.min acc (Finite_metric.dist metric from f.site)
                else acc)
              infinity !facs
          in
          if
            Float.abs (Facility_store.dist_offering store ~commodity:e ~from -. brute)
            > 1e-9
          then ok := false
        done;
        let brute_large =
          List.fold_left
            (fun acc (f : Facility.t) ->
              if Cset.is_full f.offered then
                Float.min acc (Finite_metric.dist metric from f.site)
              else acc)
            infinity !facs
        in
        if Float.abs (Facility_store.dist_large store ~from -. brute_large) > 1e-9
        then ok := false
      done;
      !ok)

(* ---------- Registry ---------- *)

let test_registry () =
  check_int "five canonical algorithms" 5 (List.length (Registry.all ()));
  check_int "ten with extensions" 10 (List.length (Registry.extended ()));
  check_bool "find PD" true (Result.is_ok (Registry.find "pd-omflp"));
  check_bool "find extension" true (Result.is_ok (Registry.find "heavy-aware"));
  check_bool "find OFL adapter" true
    (Result.is_ok (Registry.find "meyerson-ofl"));
  check_bool "case insensitive" true (Result.is_ok (Registry.find "RAND-omflp"));
  (match Registry.find "nope" with
  | Ok _ -> Alcotest.fail "unknown algorithm resolved"
  | Error (`Unknown_algo (name, available) as e) ->
      Alcotest.(check string) "unknown name echoed" "nope" name;
      Alcotest.(check (list string))
        "available list" (Registry.names ()) available;
      Alcotest.(check string)
        "pinned message"
        "unknown algorithm \"nope\" (available: PD-OMFLP, RAND-OMFLP, INDEP, \
         ALL-LARGE, GREEDY, HEAVY-AWARE, MEYERSON-OFL, FOTAKIS-OFL, \
         NONMETRIC-BF, LEASE-PD)"
        (Registry.unknown_algo_message e));
  (* Family dispatch: 8 OMFLP algorithms, one per new family. *)
  check_int "omflp family" 8
    (List.length (Registry.of_family Problem_env.Family.Omflp));
  check_int "nonmetric family" 1
    (List.length (Registry.of_family Problem_env.Family.Nonmetric_fl));
  check_int "leasing family" 1
    (List.length
       (Registry.of_family Problem_env.Family.Multi_facility_leasing));
  check_int "canonical omflp = all" 5
    (List.length (Registry.canonical_for Problem_env.Family.Omflp));
  check_int "canonical leasing = of_family" 1
    (List.length
       (Registry.canonical_for Problem_env.Family.Multi_facility_leasing))

(* ---------- Simulator validation ---------- *)

let small_instance () =
  let metric = Finite_metric.line [| 0.0; 1.0; 3.0 |] in
  let cost = Cost_function.power_law ~n_commodities:3 ~n_sites:3 ~x:1.0 in
  let requests =
    [|
      Request.make ~site:0 ~demand:(Cset.of_list ~n_commodities:3 [ 0; 1 ]);
      Request.make ~site:2 ~demand:(Cset.of_list ~n_commodities:3 [ 2 ]);
    |]
  in
  Instance.make ~name:"small" ~metric ~cost ~requests

let test_validate_accepts_good_run () =
  let inst = small_instance () in
  List.iter
    (fun (name, run) ->
      match Simulator.validate inst run with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s rejected: %s" name e)
    (Simulator.run_all ~seed:1 inst)

let test_validate_rejects_uncovered () =
  let inst = small_instance () in
  let run = Simulator.run ~seed:1 (module Pd_omflp) inst in
  (* Tamper: drop the second request's service. *)
  let bad =
    { run with Run.services = [ List.hd run.Run.services; Service.Per_commodity [] ] }
  in
  match Simulator.validate inst bad with
  | Ok () -> Alcotest.fail "tampered run accepted"
  | Error _ -> ()

let test_validate_rejects_wrong_cost () =
  let inst = small_instance () in
  let run = Simulator.run ~seed:1 (module Pd_omflp) inst in
  let bad = { run with Run.construction_cost = run.Run.construction_cost +. 1.0 } in
  match Simulator.validate inst bad with
  | Ok () -> Alcotest.fail "wrong cost accepted"
  | Error _ -> ()

let test_validate_rejects_time_travel () =
  (* A service that uses a facility opened by a later request. *)
  let inst = small_instance () in
  let run = Simulator.run ~seed:1 (module Pd_omflp) inst in
  let last_facility =
    List.fold_left (fun _ f -> f.Facility.id) 0 run.Run.facilities
  in
  let tampered_service = Service.To_single last_facility in
  let bad_facilities =
    List.map
      (fun (f : Facility.t) ->
        if f.id = last_facility then { f with opened_at = 1 } else f)
      run.Run.facilities
  in
  let bad =
    {
      run with
      Run.facilities = bad_facilities;
      services =
        (match run.Run.services with
        | _ :: rest -> tampered_service :: rest
        | [] -> [ tampered_service ]);
    }
  in
  match Simulator.validate inst bad with
  | Ok () -> Alcotest.fail "time travel accepted"
  | Error _ -> ()

(* Property: every registered algorithm produces a validating run on random
   instances across families (the simulator re-checks everything). *)
let random_instance seed =
  let rng = Splitmix.of_int seed in
  let pick = Splitmix.int rng 3 in
  match pick with
  | 0 ->
      Generators.line rng ~n_sites:6 ~n_requests:12 ~n_commodities:4
        ~length:20.0
        ~demand:(Demand.Bernoulli { p = 0.5 })
        ~cost:(fun ~n_commodities ~n_sites ->
          Cost_function.power_law ~n_commodities ~n_sites ~x:1.0)
  | 1 ->
      Generators.uniform_metric rng ~n_sites:5 ~d:4.0 ~n_requests:10
        ~n_commodities:5
        ~demand:(Demand.Zipf_bundle { zipf_s = 1.0; max_size = 3 })
        ~cost:(fun ~n_commodities ~n_sites ->
          Cost_function.theorem2 ~n_commodities ~n_sites)
  | _ ->
      Generators.network rng ~n_sites:7 ~extra_edges:3 ~n_requests:10
        ~n_commodities:4
        ~demand:(Demand.Singletons { zipf_s = 0.8 })
        ~cost:(fun ~n_commodities ~n_sites ->
          Cost_function.linear ~n_commodities ~n_sites ~per_commodity:1.5)

let prop_all_algorithms_valid =
  QCheck.Test.make ~name:"all algorithms validate on random instances"
    ~count:60 QCheck.small_int (fun seed ->
      let inst = random_instance seed in
      List.for_all
        (fun (_, algo) ->
          let run = Simulator.run ~seed ~check:false algo inst in
          match Simulator.validate inst run with Ok () -> true | Error _ -> false)
        (Registry.all ()))

(* Run.n_small / n_large counters. *)
let test_run_counters () =
  let inst = small_instance () in
  let run = Simulator.run ~seed:1 (module Indep_baseline) inst in
  check_int "indep: all small" (List.length run.Run.facilities) (Run.n_small run);
  check_int "indep: no large" 0 (Run.n_large run);
  let run = Simulator.run ~seed:1 (module All_large_baseline) inst in
  check_int "all-large: no small" 0 (Run.n_small run);
  check_int "all-large: all large" (List.length run.Run.facilities) (Run.n_large run)

let () =
  Alcotest.run "core"
    [
      ( "facility/service",
        [
          Alcotest.test_case "offered_of_kind" `Quick test_offered_of_kind;
          Alcotest.test_case "facility_ids" `Quick test_service_facility_ids;
          Alcotest.test_case "cost dedup" `Quick test_service_cost_dedup;
          Alcotest.test_case "covers" `Quick test_service_covers;
        ] );
      ( "facility_store",
        [
          Alcotest.test_case "empty" `Quick test_store_empty;
          Alcotest.test_case "small facility" `Quick test_store_small_facility;
          Alcotest.test_case "large facility" `Quick test_store_large_facility;
          Alcotest.test_case "nearest updates" `Quick test_store_nearest_updates;
          Alcotest.test_case "custom full = large" `Quick
            test_store_custom_full_counts_as_large;
          Alcotest.test_case "service accounting" `Quick test_store_service_accounting;
          QCheck_alcotest.to_alcotest prop_store_distances;
        ] );
      ("registry", [ Alcotest.test_case "registry" `Quick test_registry ]);
      ( "simulator",
        [
          Alcotest.test_case "accepts good runs" `Quick test_validate_accepts_good_run;
          Alcotest.test_case "rejects uncovered" `Quick test_validate_rejects_uncovered;
          Alcotest.test_case "rejects wrong cost" `Quick test_validate_rejects_wrong_cost;
          Alcotest.test_case "rejects time travel" `Quick
            test_validate_rejects_time_travel;
          Alcotest.test_case "run counters" `Quick test_run_counters;
          QCheck_alcotest.to_alcotest prop_all_algorithms_valid;
        ] );
    ]
