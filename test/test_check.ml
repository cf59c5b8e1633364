(* Mutation smoke test for the conformance oracle: a deliberately broken
   algorithm is injected through [Check_engine.run ~algos] and the
   harness must (1) report the planted bug, (2) shrink the counterexample,
   (3) persist a corpus file whose replay still reproduces the bug. *)

open Omflp_prelude
open Omflp_instance
open Omflp_core
open Omflp_check

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The mutant: behaves exactly like INDEP but under-reports its
   construction cost by half. [Simulator.validate] recomputes costs from
   the decisions, so every instance with a positive cost exposes it. *)
module Broken_cost : Algo_intf.ALGO = struct
  type t = Indep_baseline.t

  let name = "BROKEN-COST"
  let family = Indep_baseline.family
  let create = Indep_baseline.create
  let step = Indep_baseline.step

  let run_so_far t =
    let run = Indep_baseline.run_so_far t in
    {
      run with
      Run.algorithm = name;
      construction_cost = run.Run.construction_cost *. 0.5;
    }

  let store = Indep_baseline.store
  let snapshot = Indep_baseline.snapshot
  let restore = Indep_baseline.restore
end

let mutant = [ ("BROKEN-COST", (module Broken_cost : Algo_intf.ALGO)) ]

let with_pool f =
  let pool = Pool.create ~jobs:2 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* Scenario 0 of this seed must have a positive construction cost for the
   mutant to be caught there; any seed works because INDEP always opens a
   facility for the first request and all generated costs are positive. *)
let seed = 2024

let test_honest_algorithms_pass () =
  with_pool @@ fun pool ->
  let report =
    Check_engine.run ~pool ~corpus_dir:None ~determinism_sample:2 ~budget:5
      ~seed ()
  in
  check_int "scenarios" 5 report.Check_engine.scenarios;
  check_int "no replays without a corpus" 0 report.Check_engine.replays;
  check_int "honest algorithms produce no findings" 0
    (List.length report.Check_engine.findings)

let with_temp_corpus f =
  (* A corpus directory outside the source tree, removed afterwards even
     when the test runs from the repo root via [dune exec]. *)
  let dir = Filename.temp_file "omflp-mutant" ".corpus" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_mutant_is_caught () =
  with_temp_corpus @@ fun dir ->
  with_pool @@ fun pool ->
  let report =
    Check_engine.run ~pool ~algos:mutant ~corpus_dir:(Some dir)
      ~determinism_sample:0 ~budget:2 ~seed ()
  in
  check_bool "planted bug reported" true
    (report.Check_engine.findings <> []);
  let f =
    List.find
      (fun (f : Check_engine.finding) ->
        f.violation.Oracle.algo = "BROKEN-COST"
        && f.violation.Oracle.check = "feasible")
      report.Check_engine.findings
  in
  (* The counterexample was shrunk to something minimal: INDEP's cost is
     already positive after one request, so one request suffices. *)
  let shrunk = Option.get f.instance in
  check_bool "shrinking made progress" true (f.shrink_steps > 0);
  check_int "shrunk to a single request" 1
    (Array.length shrunk.Instance.requests);
  (* The corpus file replays: loading it back and re-running the oracle
     reproduces the same violation. *)
  let path = Option.get f.replay_path in
  let reloaded = Serial.load_file path in
  let violations = Oracle.check_instance ~algos:mutant ~seed:0 reloaded in
  check_bool "replayed corpus file reproduces the bug" true
    (List.exists
       (fun (v : Oracle.violation) ->
         v.Oracle.algo = "BROKEN-COST" && v.Oracle.check = "feasible")
       violations);
  (* A later engine invocation replays the corpus first and reports the
     persisted failure even with a zero fuzzing budget. *)
  let replayed =
    Check_engine.run ~pool ~algos:mutant ~corpus_dir:(Some dir)
      ~determinism_sample:0 ~budget:0 ~seed ()
  in
  check_bool "corpus replay re-reports the bug" true
    (List.exists
       (fun (f : Check_engine.finding) ->
         f.replay_path <> None
         && f.violation.Oracle.algo = "BROKEN-COST"
         && f.violation.Oracle.check = "feasible")
       replayed.Check_engine.findings)

let test_corpus_rejects_truncated () =
  (* Corpus files are written atomically (temp + rename), so a torn file
     can only come from outside — and the loader must reject it with the
     serializer's named error instead of replaying garbage. *)
  with_temp_corpus @@ fun dir ->
  let sc = Scenario.generate ~master_seed:seed ~index:1 () in
  let path = Corpus.save ~dir ~slug:"truncated" sc.Scenario.instance in
  check_int "no temp-file litter next to the corpus file" 1
    (Array.length (Sys.readdir dir));
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let prefix = really_input_string ic (len / 2) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc prefix;
  close_out oc;
  match Corpus.load_all ~dir with
  | [ (p, Error msg) ] ->
      check_bool "same path" true (p = path);
      check_bool "named Serial.load error" true
        (String.length msg >= 11 && String.sub msg 0 11 = "Serial.load")
  | [ (_, Ok _) ] -> Alcotest.fail "truncated corpus file was accepted"
  | entries ->
      Alcotest.failf "expected exactly one corpus entry, got %d"
        (List.length entries)

let test_oracle_reports_instead_of_raising () =
  (* An algorithm that raises mid-run must surface as a ["run"] violation,
     not as an exception out of the checker. *)
  let module Crasher : Algo_intf.ALGO = struct
    type t = Facility_store.t

    let name = "CRASHER"
    let family = Problem_env.Family.Omflp

    let create ?seed:_ env =
      Facility_store.create env
        ~n_commodities:
          (Omflp_commodity.Cost_function.n_commodities (Problem_env.cost env))

    let step _ _ = failwith "boom"
    let run_so_far _ = Alcotest.fail "unreachable"
    let store t = t
    let snapshot _ = failwith "CRASHER has no snapshot"
    let restore _ _ = failwith "CRASHER has no restore"
  end in
  let sc = Scenario.generate ~master_seed:seed ~index:0 () in
  let violations =
    Oracle.check_instance
      ~algos:[ ("CRASHER", (module Crasher : Algo_intf.ALGO)) ]
      ~seed:0 sc.Scenario.instance
  in
  check_bool "exception became a run violation" true
    (List.exists
       (fun (v : Oracle.violation) ->
         v.Oracle.check = "run" && v.Oracle.algo = "CRASHER")
       violations)

let test_oracle_family_mismatch_is_named () =
  (* Handing the oracle an algorithm from the wrong problem family must
     yield a named ["family-mismatch"] violation — it never crashes
     mid-run and never silently runs the algorithm anyway. *)
  let sc = Scenario.generate ~master_seed:seed ~index:0 () in
  let violations =
    Oracle.check_instance
      ~algos:[ ("NONMETRIC-BF", (module Nonmetric_bf : Algo_intf.ALGO)) ]
      ~seed:0 sc.Scenario.instance
  in
  check_bool "mismatch became a named violation" true
    (List.exists
       (fun (v : Oracle.violation) ->
         v.Oracle.check = "family-mismatch"
         && v.Oracle.algo = "NONMETRIC-BF"
         && v.Oracle.detail
            = "family mismatch: algorithm NONMETRIC-BF serves the \
               nonmetric-fl family but the environment is omflp")
       violations)

(* ---------- Arrival axis ---------- *)

let forced_models =
  [ (`Adversarial, "adv"); (`Random_order, "ro"); (`Iid, "iid") ]

let test_scenario_pure () =
  (* [generate] is a pure function of (master_seed, index): two calls
     yield identical scenarios and never share a mutable request array
     (regression for the old in-place reorder shuffle). *)
  List.iter
    (fun index ->
      let a = Scenario.generate ~master_seed:seed ~index () in
      let b = Scenario.generate ~master_seed:seed ~index () in
      check_bool "labels equal" true (a.Scenario.label = b.Scenario.label);
      check_int "algo seeds equal" a.Scenario.algo_seed b.Scenario.algo_seed;
      check_bool "requests equal" true
        (a.Scenario.instance.Instance.requests
        = b.Scenario.instance.Instance.requests);
      check_bool "request arrays not aliased" true
        (a.Scenario.instance.Instance.requests
        != b.Scenario.instance.Instance.requests))
    [ 0; 1; 2; 5; 7 ]

let test_forced_arrival_models () =
  (* Forcing restricts the order treatment to one model and must leave
     the instance family and algo seed of each index untouched (the
     scenario stream consumes its RNG draws unconditionally). *)
  List.iter
    (fun (forced, tag) ->
      for index = 0 to 11 do
        let sc =
          Scenario.generate ~arrival:forced ~master_seed:seed ~index ()
        in
        let base = Scenario.generate ~master_seed:seed ~index () in
        check_bool
          (Printf.sprintf "i%d forced model is %s" index tag)
          true
          (Arrival.model_tag sc.Scenario.instance.Instance.arrival = tag);
        check_int "forcing keeps algo_seed" base.Scenario.algo_seed
          sc.Scenario.algo_seed;
        check_int "forcing keeps sites"
          (Instance.n_sites base.Scenario.instance)
          (Instance.n_sites sc.Scenario.instance);
        check_int "forcing keeps commodities"
          (Instance.n_commodities base.Scenario.instance)
          (Instance.n_commodities sc.Scenario.instance)
      done)
    forced_models

let test_corpus_slug_records_model () =
  (* A finding on a forced random-order stream must persist with the
     model tag in the slug and the arrival line in the .inst file, so
     the replayed corpus entry re-runs the exact materialized order. *)
  with_temp_corpus @@ fun dir ->
  with_pool @@ fun pool ->
  let report =
    Check_engine.run ~pool ~algos:mutant ~corpus_dir:(Some dir) ~shrink:false
      ~determinism_sample:0 ~arrival:`Random_order ~budget:2 ~seed ()
  in
  check_bool "planted bug reported" true (report.Check_engine.findings <> []);
  List.iter
    (fun (f : Check_engine.finding) ->
      let path = Option.get f.replay_path in
      let contains_ro =
        let base = Filename.basename path in
        let needle = "-ro-" in
        let n = String.length needle and l = String.length base in
        let rec scan i =
          i + n <= l && (String.sub base i n = needle || scan (i + 1))
        in
        scan 0
      in
      check_bool "slug carries the model tag" true contains_ro;
      let reloaded = Serial.load_file path in
      let original = Option.get f.instance in
      check_bool "arrival survives the corpus round trip" true
        (reloaded.Instance.arrival = original.Instance.arrival);
      check_bool "materialized order survives the corpus round trip" true
        (reloaded.Instance.requests = original.Instance.requests))
    report.Check_engine.findings

let test_ro_jobs_determinism () =
  (* Same-seed random-order scenarios must produce byte-identical run
     digests under pools of different sizes — the jobs=1 vs jobs=N
     contract extended to the new arrival axis. *)
  let digest_of index =
    let sc =
      Scenario.generate ~arrival:`Random_order ~master_seed:seed ~index ()
    in
    String.concat "\n"
      (List.map
         (fun (_, algo) ->
           Oracle.run_digest
             (Simulator.run ~seed:sc.Scenario.algo_seed ~check:false algo
                sc.Scenario.instance))
         (Registry.of_family (Instance.family sc.Scenario.instance)))
  in
  let indices = Array.init 6 Fun.id in
  let under_jobs jobs =
    let pool = Pool.create ~jobs in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Pool.map pool digest_of indices)
  in
  let one = under_jobs 1 and three = under_jobs 3 in
  Array.iteri
    (fun i d ->
      check_bool (Printf.sprintf "digest %d identical" i) true (d = three.(i)))
    one

let () =
  Alcotest.run "check"
    [
      ( "mutation",
        [
          Alcotest.test_case "honest algorithms pass" `Quick
            test_honest_algorithms_pass;
          Alcotest.test_case "planted bug is caught, shrunk, replayable"
            `Quick test_mutant_is_caught;
          Alcotest.test_case "family mismatch becomes a named violation"
            `Quick test_oracle_family_mismatch_is_named;
          Alcotest.test_case "algorithm exception becomes a finding" `Quick
            test_oracle_reports_instead_of_raising;
          Alcotest.test_case "truncated corpus file rejected" `Quick
            test_corpus_rejects_truncated;
        ] );
      ( "arrival",
        [
          Alcotest.test_case "scenario generation is pure" `Quick
            test_scenario_pure;
          Alcotest.test_case "forced models, invariant family" `Quick
            test_forced_arrival_models;
          Alcotest.test_case "corpus slug records the model" `Quick
            test_corpus_slug_records_model;
          Alcotest.test_case "random-order jobs=1 = jobs=3" `Quick
            test_ro_jobs_determinism;
        ] );
    ]
