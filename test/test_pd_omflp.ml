open Omflp_prelude
open Omflp_commodity
open Omflp_metric
open Omflp_instance
open Omflp_core

let check_float tol = Alcotest.(check (float tol))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run_pd inst =
  let t = Pd_omflp.create (Instance.env inst) in
  Array.iter (fun r -> ignore (Pd_omflp.step t r)) inst.Instance.requests;
  t

(* ---------- Closed-form behaviour on hand instances ---------- *)

let test_single_request_single_site () =
  (* One site, one request, one commodity: open {e} and pay f. *)
  let metric = Finite_metric.single_point () in
  let cost = Cost_function.linear ~n_commodities:2 ~n_sites:1 ~per_commodity:3.0 in
  let inst =
    Instance.make ~name:"one" ~metric ~cost
      ~requests:[| Request.make ~site:0 ~demand:(Cset.singleton ~n_commodities:2 0) |]
  in
  let t = run_pd inst in
  let run = Pd_omflp.run_so_far t in
  check_float 1e-9 "construction" 3.0 run.Run.construction_cost;
  check_float 1e-9 "assignment" 0.0 run.Run.assignment_cost;
  check_int "one small facility" 1 (Run.n_small run)

let test_second_request_connects () =
  (* Same commodity twice at the same point: second connects for free. *)
  let metric = Finite_metric.single_point () in
  let cost = Cost_function.linear ~n_commodities:2 ~n_sites:1 ~per_commodity:3.0 in
  let r = Request.make ~site:0 ~demand:(Cset.singleton ~n_commodities:2 0) in
  let inst = Instance.make ~name:"two" ~metric ~cost ~requests:[| r; r |] in
  let run = Pd_omflp.run_so_far (run_pd inst) in
  check_float 1e-9 "total" 3.0 (Run.total_cost run);
  check_int "one facility" 1 (List.length run.Run.facilities)

let test_large_facility_on_joint_demand () =
  (* A request for everything with concave cost: a single large facility is
     opened (constraint (4) fires before the combined smalls finish). *)
  let metric = Finite_metric.single_point () in
  let cost = Cost_function.constant ~n_commodities:4 ~n_sites:1 ~cost:2.0 in
  let inst =
    Instance.make ~name:"joint" ~metric ~cost
      ~requests:[| Request.make ~site:0 ~demand:(Cset.full ~n_commodities:4) |]
  in
  let run = Pd_omflp.run_so_far (run_pd inst) in
  check_int "one large facility" 1 (Run.n_large run);
  check_int "no small facilities" 0 (Run.n_small run);
  check_float 1e-9 "total" 2.0 (Run.total_cost run)

let test_theorem2_full_regime_cost () =
  (* |S'| = |S|: PD pays ~sqrt|S| small + one large = 2 * OPT. *)
  let n_commodities = 64 in
  let rng = Splitmix.of_int 11 in
  let inst =
    Generators.single_point_adversary rng ~n_commodities
      ~cost:Cost_function.theorem2 ~n_requested:n_commodities
  in
  let run = Pd_omflp.run_so_far (run_pd inst) in
  check_int "exactly one large" 1 (Run.n_large run);
  check_int "sqrt|S| smalls" 8 (Run.n_small run);
  check_float 1e-9 "cost 2*OPT" 16.0 (Run.total_cost run)

let test_distance_matters () =
  (* Cheap facility far away vs expensive nearby: the dual stops at the
     cheaper tightness. Site 1 at distance 1 with f = 10; site 0 (own) with
     f = 3: opening at own site is tight first (delta 3 < 1 + 10). *)
  let metric = Finite_metric.line [| 0.0; 1.0 |] in
  let cost =
    Cost_function.site_scaled
      (Cost_function.linear ~n_commodities:1 ~n_sites:2 ~per_commodity:1.0)
      [| 3.0; 10.0 |]
  in
  let inst =
    Instance.make ~name:"dist" ~metric ~cost
      ~requests:[| Request.make ~site:0 ~demand:(Cset.singleton ~n_commodities:1 0) |]
  in
  let run = Pd_omflp.run_so_far (run_pd inst) in
  (match run.Run.facilities with
  | [ f ] -> check_int "opens own site" 0 f.Facility.site
  | _ -> Alcotest.fail "expected exactly one facility");
  check_float 1e-9 "total" 3.0 (Run.total_cost run)

let test_determinism () =
  let rng = Splitmix.of_int 3 in
  let inst =
    Generators.line rng ~n_sites:6 ~n_requests:15 ~n_commodities:4 ~length:20.0
      ~demand:(Demand.Bernoulli { p = 0.5 })
      ~cost:(fun ~n_commodities ~n_sites ->
        Cost_function.power_law ~n_commodities ~n_sites ~x:1.0)
  in
  let c1 = Run.total_cost (Pd_omflp.run_so_far (run_pd inst)) in
  let c2 = Run.total_cost (Pd_omflp.run_so_far (run_pd inst)) in
  check_float 1e-12 "deterministic" c1 c2

let test_dual_records_shape () =
  let rng = Splitmix.of_int 4 in
  let inst =
    Generators.line rng ~n_sites:4 ~n_requests:8 ~n_commodities:3 ~length:10.0
      ~demand:(Demand.Bernoulli { p = 0.6 })
      ~cost:(fun ~n_commodities ~n_sites ->
        Cost_function.power_law ~n_commodities ~n_sites ~x:1.0)
  in
  let t = run_pd inst in
  let records = Pd_omflp.dual_records t in
  check_int "one record per request" 8 (List.length records);
  List.iteri
    (fun i (p : Pd_omflp.dual_record) ->
      check_int
        (Printf.sprintf "site %d" i)
        inst.Instance.requests.(i).Request.site p.site;
      (* dual_sum consistent with per-commodity duals *)
      let s = Cset.fold (fun e acc -> acc +. p.duals.(e)) p.demand 0.0 in
      check_float 1e-9 "dual sum" s p.dual_sum;
      (* duals are non-negative *)
      Cset.iter (fun e -> check_bool "dual >= 0" true (p.duals.(e) >= 0.0)) p.demand)
    records

(* ---------- Theory checks on random instances ---------- *)

let random_instance seed =
  let rng = Splitmix.of_int seed in
  match Splitmix.int rng 4 with
  | 0 ->
      Generators.line rng ~n_sites:5 ~n_requests:12 ~n_commodities:4
        ~length:15.0
        ~demand:(Demand.Bernoulli { p = 0.5 })
        ~cost:(fun ~n_commodities ~n_sites ->
          Cost_function.power_law ~n_commodities ~n_sites ~x:1.0)
  | 1 ->
      Generators.theorem2 rng ~n_commodities:16
  | 2 ->
      Generators.uniform_metric rng ~n_sites:4 ~d:3.0 ~n_requests:10
        ~n_commodities:5
        ~demand:(Demand.Zipf_bundle { zipf_s = 1.0; max_size = 3 })
        ~cost:(fun ~n_commodities ~n_sites ->
          Cost_function.power_law ~n_commodities ~n_sites ~x:0.5)
  | _ ->
      Generators.network rng ~n_sites:6 ~extra_edges:3 ~n_requests:10
        ~n_commodities:4
        ~demand:(Demand.Bernoulli { p = 0.4 })
        ~cost:(fun ~n_commodities ~n_sites ->
          Cost_function.theorem2 ~n_commodities ~n_sites)

let prop_cache_exact =
  (* The incremental caches must equal a from-scratch recomputation at
     every point (up to float summation noise). *)
  QCheck.Test.make ~name:"incremental bid caches stay exact" ~count:40
    QCheck.small_int (fun seed ->
      let inst = random_instance seed in
      let t = Pd_omflp.create (Instance.env inst) in
      let ok = ref true in
      Array.iter
        (fun r ->
          ignore (Pd_omflp.step t r);
          if Pd_omflp.cache_drift t > 1e-9 then ok := false)
        inst.Instance.requests;
      !ok)

(* [t]'s whole state as one segment. [Pd_omflp.snapshot] returns a delta
   once a state has written its first segment, so states are compared by
   this encoding instead. *)
let whole_state t =
  Omflp_prelude.Snapshot_codec.base ~tag:"whole-state" ~count:0 (fun w ->
      Pd_omflp.write w t)

let prop_cache_survives_restore =
  (* The bid caches travel in the snapshot verbatim: a run restored at any
     cut point keeps exact caches and continues byte-identically, into
     the same whole state. *)
  QCheck.Test.make ~name:"bid caches survive snapshot/restore" ~count:40
    QCheck.small_int (fun seed ->
      let inst = random_instance seed in
      let env = Instance.env inst in
      let requests = inst.Instance.requests in
      let cut = seed mod (Array.length requests + 1) in
      let t = Pd_omflp.create env in
      Array.iteri (fun i r -> if i < cut then ignore (Pd_omflp.step t r)) requests;
      let t' = Pd_omflp.restore env (Pd_omflp.snapshot t) in
      let ok = ref (Pd_omflp.cache_drift t' <= 1e-9) in
      Array.iteri
        (fun i r ->
          if i >= cut then begin
            ignore (Pd_omflp.step t r);
            ignore (Pd_omflp.step t' r);
            if Pd_omflp.cache_drift t' > 1e-9 then ok := false
          end)
        requests;
      !ok && String.equal (whole_state t) (whole_state t'))

let prop_delta_chain_restores_state =
  (* Snapshot every [every] requests, keeping the chain a checkpoint file
     would hold (a base replaces it, a delta is appended): restoring the
     chain at any cadence point gives the live state byte for byte, past
     caps that a later opening lowered included. *)
  QCheck.Test.make ~name:"delta chains restore the live state" ~count:40
    QCheck.small_int (fun seed ->
      let inst = random_instance seed in
      let env = Instance.env inst in
      let every = 1 + (seed mod 3) in
      let t = Pd_omflp.create env in
      let chain = Buffer.create 4096 in
      let ok = ref true in
      Array.iteri
        (fun i r ->
          ignore (Pd_omflp.step t r);
          if (i + 1) mod every = 0 then begin
            let seg = Pd_omflp.snapshot t in
            (match Omflp_prelude.Snapshot_codec.segment_info seg with
            | Omflp_prelude.Snapshot_codec.Base, _, _ -> Buffer.clear chain
            | Omflp_prelude.Snapshot_codec.Delta, _, _ -> ());
            Buffer.add_string chain seg;
            let t' = Pd_omflp.restore env (Buffer.contents chain) in
            if not (String.equal (whole_state t) (whole_state t')) then
              ok := false
          end)
        inst.Instance.requests;
      !ok)

let prop_corollary8 =
  QCheck.Test.make ~name:"Corollary 8: cost <= 3 * dual objective" ~count:80
    QCheck.small_int (fun seed ->
      let t = run_pd (random_instance seed) in
      match Dual_checker.corollary8 t with Ok () -> true | Error _ -> false)

let prop_corollary17 =
  QCheck.Test.make
    ~name:"Corollary 17: gamma-scaled duals are dual-feasible" ~count:50
    QCheck.small_int (fun seed ->
      let inst = random_instance seed in
      let t = run_pd inst in
      match
        Dual_checker.scaled_dual_feasible inst.Instance.metric inst.Instance.cost
          (Pd_omflp.dual_records t)
      with
      | Ok () -> true
      | Error _ -> false)

let prop_dual_lower_bound_below_opt =
  (* gamma * dual objective <= OPT: checked against the exact ILP OPT. *)
  QCheck.Test.make ~name:"dual lower bound <= exact OPT" ~count:25
    QCheck.small_int (fun seed ->
      let rng = Splitmix.of_int (seed + 7777) in
      let inst =
        Generators.line rng ~n_sites:3 ~n_requests:5 ~n_commodities:3
          ~length:8.0
          ~demand:(Demand.Bernoulli { p = 0.6 })
          ~cost:(fun ~n_commodities ~n_sites ->
            Cost_function.power_law ~n_commodities ~n_sites ~x:1.0)
      in
      let t = run_pd inst in
      match Omflp_offline.Exact.ilp_opt inst with
      | Some opt -> Dual_checker.dual_lower_bound t <= opt +. 1e-6
      | None -> true)

let prop_competitive_against_exact_opt =
  (* The proven guarantee is 15 sqrt|S| H_n; assert it concretely. *)
  QCheck.Test.make ~name:"PD within 15 sqrt|S| H_n of exact OPT" ~count:25
    QCheck.small_int (fun seed ->
      let rng = Splitmix.of_int (seed + 999) in
      let inst =
        Generators.line rng ~n_sites:3 ~n_requests:5 ~n_commodities:3
          ~length:8.0
          ~demand:(Demand.Bernoulli { p = 0.6 })
          ~cost:(fun ~n_commodities ~n_sites ->
            Cost_function.power_law ~n_commodities ~n_sites ~x:1.0)
      in
      let t = run_pd inst in
      match Omflp_offline.Exact.ilp_opt inst with
      | Some opt ->
          let bound =
            15.0 *. sqrt 3.0 *. Numerics.harmonic 5 *. opt
          in
          Run.total_cost (Pd_omflp.run_so_far t) <= bound +. 1e-6
      | None -> true)

(* Event counts are read from the [pd.event.*] counters. The registry is
   process-global: reset it first and leave metrics disabled. *)
let with_metrics f =
  Omflp_obs.Metrics.reset ();
  Omflp_obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Omflp_obs.Metrics.set_enabled false) f

let pd_counter name =
  Omflp_obs.Metrics.value (Omflp_obs.Metrics.counter ("pd." ^ name))

let test_trace_theorem2 () =
  (* |S| = 16, all commodities requested as singletons: the first sqrt|S|
     requests open small facilities, the next one triggers the large
     facility (its bid threshold is fully paid by past duals), everything
     afterwards connects without opening. A singleton request fires one
     constraint and keeps what it opens, so the store shows every
     opening. *)
  let n_commodities = 16 in
  let rng = Splitmix.of_int 13 in
  let inst =
    Generators.single_point_adversary rng ~n_commodities
      ~cost:Cost_function.theorem2 ~n_requested:n_commodities
  in
  with_metrics (fun () ->
      let t = run_pd inst in
      check_int "one dual record per request" n_commodities
        (List.length (Pd_omflp.dual_records t));
      check_int "one loop iteration per request" n_commodities
        (pd_counter "loop_iters");
      check_int "sqrt|S| small openings" 4 (pd_counter "event.open_small");
      check_int "exactly one large opening" 1 (pd_counter "event.open_large");
      let store = Pd_omflp.store t in
      let facs = Facility_store.facilities store in
      let small, large =
        List.partition
          (fun (f : Facility.t) ->
            match f.kind with Facility.Small _ -> true | _ -> false)
          facs
      in
      check_int "sqrt|S| small facilities" 4 (List.length small);
      let large =
        match large with
        | [ ({ Facility.kind = Facility.Large; _ } as f) ] -> f
        | _ -> Alcotest.fail "expected exactly one large facility"
      in
      (* After the large facility exists, nothing opens anymore: every
         later request connects to an older facility at distance 0, so
         it raises no dual. *)
      List.iter
        (fun (f : Facility.t) ->
          if f.opened_at >= large.opened_at then
            Alcotest.fail "opened small after large")
        small;
      List.iteri
        (fun j (svc, (d : Pd_omflp.dual_record)) ->
          if j > large.opened_at then begin
            List.iter
              (fun id ->
                if (Facility_store.facility store id).opened_at >= j then
                  Alcotest.failf "request %d opened a facility" j)
              (Service.facility_ids svc);
            check_float 0.0 "no dual after the large opening" 0.0 d.dual_sum
          end)
        (List.combine (Facility_store.services store) (Pd_omflp.dual_records t)))

let test_trace_connection_events () =
  (* Second identical request connects: the first opens {0} and pays f
     through its dual, the second fires one constraint-(1) connection to
     facility 0 with dual 0 (the facility is at distance 0). *)
  let metric = Finite_metric.single_point () in
  let cost = Cost_function.linear ~n_commodities:2 ~n_sites:1 ~per_commodity:3.0 in
  let r = Request.make ~site:0 ~demand:(Cset.singleton ~n_commodities:2 0) in
  let inst = Instance.make ~name:"two" ~metric ~cost ~requests:[| r; r |] in
  with_metrics (fun () ->
      let t = Pd_omflp.create (Instance.env inst) in
      ignore (Pd_omflp.step t r);
      check_int "first: one small opening" 1 (pd_counter "event.open_small");
      check_int "first: one event" 1 (pd_counter "loop_iters");
      ignore (Pd_omflp.step t r);
      check_int "second: one connection" 1 (pd_counter "event.connect_small");
      check_int "second: one event" 2 (pd_counter "loop_iters");
      check_int "second: nothing opened" 1 (pd_counter "event.open_small");
      check_int "no large event" 0
        (pd_counter "event.connect_large" + pd_counter "event.open_large");
      let store = Pd_omflp.store t in
      (match Facility_store.facilities store with
      | [ { Facility.id = 0; kind = Facility.Small 0; opened_at = 0; _ } ] -> ()
      | _ -> Alcotest.fail "expected one small facility {0} opened by request 0");
      (match Facility_store.services store with
      | [ Service.Per_commodity [ (0, 0) ]; Service.Per_commodity [ (0, 0) ] ]
        ->
          ()
      | _ -> Alcotest.fail "expected both requests served by facility 0");
      match Pd_omflp.dual_records t with
      | [ first; second ] ->
          check_float 1e-9 "first pays f" 3.0 first.duals.(0);
          check_float 1e-9 "free connection" 0.0 second.duals.(0)
      | _ -> Alcotest.fail "expected two dual records")

let test_gamma_value () =
  (* gamma = 1 / (5 sqrt|S| H_n). *)
  check_float 1e-12 "gamma" (1.0 /. (5.0 *. 4.0 *. Numerics.harmonic 10))
    (Dual_checker.gamma ~n_commodities:16 ~n_requests:10)

let test_default_configs_cutoff () =
  (* The exhaustive-enumeration cutoff is explicit: at the limit every
     non-empty subset is checked (2^|S| - 1 of them), one commodity above
     it only S and the singletons (|S| + 1). *)
  check_int "limit is 10" 10 Dual_checker.exhaustive_limit;
  let at = Dual_checker.exhaustive_limit in
  check_int "at cutoff: all subsets"
    ((1 lsl at) - 1)
    (List.length (Dual_checker.default_configs ~n_commodities:at));
  let above = at + 1 in
  let configs = Dual_checker.default_configs ~n_commodities:above in
  check_int "above cutoff: S + singletons" (above + 1) (List.length configs);
  (match configs with
  | full :: singles ->
      check_bool "first is S" true (Cset.is_full full);
      List.iteri
        (fun e c ->
          check_bool "singleton" true
            (Cset.equal c (Cset.singleton ~n_commodities:above e)))
        singles
  | [] -> Alcotest.fail "empty config list");
  (* Below the cutoff the enumeration is still exhaustive. *)
  check_int "below cutoff: all subsets"
    ((1 lsl (at - 1)) - 1)
    (List.length (Dual_checker.default_configs ~n_commodities:(at - 1)))

let () =
  Alcotest.run "pd_omflp"
    [
      ( "behaviour",
        [
          Alcotest.test_case "single request" `Quick test_single_request_single_site;
          Alcotest.test_case "second connects" `Quick test_second_request_connects;
          Alcotest.test_case "large on joint demand" `Quick
            test_large_facility_on_joint_demand;
          Alcotest.test_case "theorem2 full regime" `Quick
            test_theorem2_full_regime_cost;
          Alcotest.test_case "distance matters" `Quick test_distance_matters;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "dual records" `Quick test_dual_records_shape;
          Alcotest.test_case "trace: theorem2" `Quick test_trace_theorem2;
          Alcotest.test_case "trace: connections" `Quick test_trace_connection_events;
          Alcotest.test_case "gamma" `Quick test_gamma_value;
          Alcotest.test_case "default configs cutoff" `Quick
            test_default_configs_cutoff;
        ] );
      ( "theory",
        [
          QCheck_alcotest.to_alcotest prop_cache_exact;
          QCheck_alcotest.to_alcotest prop_cache_survives_restore;
          QCheck_alcotest.to_alcotest prop_corollary8;
          QCheck_alcotest.to_alcotest prop_corollary17;
          QCheck_alcotest.to_alcotest prop_dual_lower_bound_below_opt;
          QCheck_alcotest.to_alcotest prop_competitive_against_exact_opt;
          QCheck_alcotest.to_alcotest prop_delta_chain_restores_state;
        ] );
    ]
