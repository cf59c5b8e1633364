(* lib/obs unit tests (counters / timers / histograms / trace sink /
   report) plus the instrumentation parity checks of the acceptance
   criteria: with metrics enabled, a seeded PD-OMFLP run's counters must
   exactly match its event trace, and its bid caches must stay exact
   while metrics are on.

   The registry is process-global, so every test that reads counter
   values resets the registry first and leaves metrics disabled. *)

open Omflp_prelude
open Omflp_instance
open Omflp_core
open Omflp_obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float tol = Alcotest.(check (float tol))

let with_metrics f =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) f

(* ---------- counters ---------- *)

let test_counter_basics () =
  let c = Metrics.counter "test.obs.counter_basics" in
  Metrics.reset ();
  Metrics.set_enabled false;
  Metrics.incr c;
  Metrics.add c 5;
  check_int "disabled: no-op" 0 (Metrics.value c);
  with_metrics (fun () ->
      Metrics.incr c;
      Metrics.incr c;
      Metrics.add c 40;
      check_int "enabled: counts" 42 (Metrics.value c));
  check_int "survives disable" 42 (Metrics.value c);
  Metrics.reset ();
  check_int "reset zeroes" 0 (Metrics.value c)

let test_counter_registration_idempotent () =
  let a = Metrics.counter "test.obs.same_name" in
  let b = Metrics.counter "test.obs.same_name" in
  with_metrics (fun () ->
      Metrics.incr a;
      Metrics.incr b;
      check_int "same instrument" 2 (Metrics.value a))

let test_many_counters () =
  (* Force the registry past its initial capacity. *)
  let cs =
    List.init 100 (fun i ->
        Metrics.counter (Printf.sprintf "test.obs.many.%03d" i))
  in
  with_metrics (fun () ->
      List.iteri (fun i c -> Metrics.add c i) cs;
      List.iteri
        (fun i c -> check_int (Printf.sprintf "counter %d" i) i (Metrics.value c))
        cs)

let test_timer () =
  let t = Metrics.timer "test.obs.timer" in
  with_metrics (fun () ->
      Metrics.record_span t 0.25;
      Metrics.record_span t 0.75;
      let x = Metrics.time t (fun () -> 7) in
      check_int "time returns" 7 x;
      let snap = Metrics.snapshot () in
      let view =
        List.find
          (fun (v : Metrics.timer_view) -> v.t_name = "test.obs.timer")
          snap.timers
      in
      check_int "events" 3 view.t_events;
      check_bool "total >= recorded spans" true (view.t_total_s >= 1.0))

let test_histogram () =
  let h = Metrics.histogram "test.obs.hist" in
  with_metrics (fun () ->
      List.iter (Metrics.observe h) [ 1.0; 1.5; 2.0; 4.0; 1024.0; 0.0; -3.0 ];
      let snap = Metrics.snapshot () in
      let view =
        List.find
          (fun (v : Metrics.histogram_view) -> v.h_name = "test.obs.hist")
          snap.histograms
      in
      check_int "events" 7 view.h_events;
      check_float 1e-9 "sum" 1029.5 view.h_sum;
      (* 1.0 and 1.5 share the [1,2) bucket; 0 and -3 the bottom one. *)
      let bucket_with lo =
        List.find_opt (fun (b : Metrics.bucket) -> b.b_lo = lo) view.h_buckets
      in
      (match bucket_with 1.0 with
      | Some b -> check_int "[1,2) holds 2" 2 b.b_count
      | None -> Alcotest.fail "no [1,2) bucket");
      (match bucket_with 2.0 with
      | Some b -> check_int "[2,4) holds 1" 1 b.b_count
      | None -> Alcotest.fail "no [2,4) bucket");
      let q50 = Metrics.approx_quantile view 0.5 in
      check_bool "p50 within data range" true (q50 > 0.0 && q50 < 16.0);
      let q100 = Metrics.approx_quantile view 1.0 in
      check_bool "p100 in top bucket" true (q100 > 512.0 && q100 < 2048.0))

let test_snapshot_sorted () =
  ignore (Metrics.counter "test.obs.zzz");
  ignore (Metrics.counter "test.obs.aaa");
  let snap = Metrics.snapshot () in
  let names = List.map (fun (c : Metrics.counter_view) -> c.c_name) snap.counters in
  check_bool "sorted by name" true
    (List.sort String.compare names = names)

(* ---------- per-domain shards (parallel recording) ---------- *)

let with_pool ~jobs f =
  let p = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let test_parallel_counters_merge_exact () =
  (* Work recorded from pool workers lands in per-domain shards; the
     merged value must equal the serial total exactly. *)
  let c = Metrics.counter "test.obs.shard_counter" in
  with_metrics (fun () ->
      with_pool ~jobs:4 (fun pool ->
          ignore
            (Pool.map pool
               (fun i ->
                 Metrics.add c (i + 1);
                 Metrics.incr c)
               (Array.init 32 Fun.id)));
      (* sum 1..32 plus one incr per task *)
      check_int "merged total" ((32 * 33 / 2) + 32) (Metrics.value c))

let test_parallel_timers_histograms_merge () =
  let t = Metrics.timer "test.obs.shard_timer" in
  let h = Metrics.histogram "test.obs.shard_hist" in
  let n = 24 in
  with_metrics (fun () ->
      with_pool ~jobs:3 (fun pool ->
          ignore
            (Pool.map pool
               (fun _ ->
                 Metrics.record_span t 1.0;
                 Metrics.observe h 2.0)
               (Array.init n Fun.id)));
      let snap = Metrics.snapshot () in
      let tv =
        List.find (fun (v : Metrics.timer_view) -> v.t_name = "test.obs.shard_timer")
          snap.timers
      in
      check_int "timer events" n tv.t_events;
      (* 1.0-spans sum exactly in any association order. *)
      check_float 0.0 "timer total" (float_of_int n) tv.t_total_s;
      let hv =
        List.find
          (fun (v : Metrics.histogram_view) -> v.h_name = "test.obs.shard_hist")
          snap.histograms
      in
      check_int "histogram events" n hv.h_events;
      check_float 0.0 "histogram sum" (float_of_int (2 * n)) hv.h_sum;
      match hv.h_buckets with
      | [ b ] -> check_int "all in [2,4)" n b.b_count
      | bs -> Alcotest.failf "expected one bucket, got %d" (List.length bs))

(* Regression guard: [snapshot] used to read the registration counts
   and the names arrays without [reg_mutex] — a genuine data race with a
   concurrent [Metrics.counter]/[histogram] (which grow and swap those
   arrays under the mutex). On x86 the mutex-ordered stores and
   grow-only arrays make the bad interleaving unobservable in practice,
   so this test is a contract guard for the locked read (and for weaker
   memory models / future refactors) rather than an empirical failure
   on this platform. Half the pool tasks register fresh instruments
   while the other half snapshot. *)
let test_registration_vs_snapshot_race () =
  with_metrics (fun () ->
      with_pool ~jobs:4 (fun pool ->
          let n = 192 in
          let failures = Array.make n "" in
          ignore
            (Pool.map pool
               (fun i ->
                 if i mod 2 = 0 then
                   for j = 0 to 15 do
                     ignore
                       (Metrics.counter
                          (Printf.sprintf "test.obs.regrace.%03d.%02d" i j));
                     ignore
                       (Metrics.histogram
                          (Printf.sprintf "test.obs.regrace.h%03d.%02d" i j))
                   done
                 else
                   match Metrics.snapshot () with
                   | snap ->
                       List.iter
                         (fun (c : Metrics.counter_view) ->
                           if c.c_name = "" then
                             failures.(i) <- "snapshot saw an unnamed counter")
                         snap.counters
                   | exception e ->
                       failures.(i) <-
                         "snapshot raised " ^ Printexc.to_string e)
               (Array.init n Fun.id));
          Array.iter (fun f -> if f <> "" then Alcotest.fail f) failures))

let prop_shards_equal_serial =
  (* The satellite qcheck property: for any workload of counter
     increments, the parallel merged value equals the serial value. *)
  QCheck.Test.make ~name:"merged shards = serial counters" ~count:30
    QCheck.(list_of_size Gen.(int_range 0 40) small_nat)
    (fun ks ->
      let c = Metrics.counter "test.obs.shard_prop" in
      let arr = Array.of_list ks in
      Metrics.reset ();
      Metrics.set_enabled true;
      Fun.protect ~finally:(fun () -> Metrics.set_enabled false) (fun () ->
          List.iter (Metrics.add c) ks;
          let serial = Metrics.value c in
          Metrics.reset ();
          with_pool ~jobs:3 (fun pool ->
              ignore (Pool.map pool (fun k -> Metrics.add c k) arr));
          let parallel = Metrics.value c in
          serial = parallel && serial = List.fold_left ( + ) 0 ks))

(* ---------- trace sink ---------- *)

let test_trace_sink_json_lines () =
  let path = Filename.temp_file "omflp_trace" ".jsonl" in
  let sink = Trace_sink.open_file path in
  Trace_sink.install sink;
  check_bool "installed" true (Trace_sink.installed ());
  Trace_sink.emit_current ~kind:"request"
    [
      ("index", Trace_sink.Int 0);
      ("latency_s", Trace_sink.Float 1.5);
      ("name", Trace_sink.String "a\"b\\c");
      ("ok", Trace_sink.Bool true);
      ("bad", Trace_sink.Float Float.nan);
    ];
  Trace_sink.emit_current ~kind:"request" [ ("index", Trace_sink.Int 1) ];
  Trace_sink.uninstall ();
  Trace_sink.close sink;
  check_bool "uninstalled" false (Trace_sink.installed ());
  Trace_sink.emit_current ~kind:"dropped" [];
  let ic = open_in path in
  let l1 = input_line ic in
  let l2 = input_line ic in
  let eof = try ignore (input_line ic); false with End_of_file -> true in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string)
    "first record"
    "{\"kind\":\"request\",\"seq\":0,\"index\":0,\"latency_s\":1.5,\"name\":\"a\\\"b\\\\c\",\"ok\":true,\"bad\":null}"
    l1;
  Alcotest.(check string)
    "second record" "{\"kind\":\"request\",\"seq\":1,\"index\":1}" l2;
  check_bool "exactly two lines" true eof

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_trace_sink_appends () =
  (* Regression: [open_file] used to truncate, so a resumed session (or
     any second sink on the same path) wiped the events of the first.
     It must append — and flush per record, so the line is durable
     before [close]. *)
  let path = Filename.temp_file "omflp_trace" ".jsonl" in
  let s1 = Trace_sink.open_file path in
  Trace_sink.emit s1 ~kind:"first" [ ("i", Trace_sink.Int 0) ];
  Trace_sink.close s1;
  let s2 = Trace_sink.open_file path in
  Trace_sink.emit s2 ~kind:"second" [ ("i", Trace_sink.Int 1) ];
  let durable_before_close = List.length (read_lines path) in
  Trace_sink.close s2;
  let lines = read_lines path in
  Sys.remove path;
  check_int "record durable before close" 2 durable_before_close;
  check_int "both sessions' records survive" 2 (List.length lines);
  Alcotest.(check string)
    "first session's record intact"
    "{\"kind\":\"first\",\"seq\":0,\"i\":0}" (List.nth lines 0);
  Alcotest.(check string)
    "second session appended (seq restarts per sink)"
    "{\"kind\":\"second\",\"seq\":0,\"i\":1}" (List.nth lines 1)

(* Regression: [emit] wrote to the shared channel without a lock. The
   channel's own per-operation lock hid this for small records, but a
   record larger than the channel buffer (64 KiB) is written in several
   chunks with the lock released in between — two domains emitting
   concurrently interleaved their chunks mid-line (torn JSONL), and the
   unsynchronized [seq] bump could duplicate numbers. The 100 KB pads
   below tear on the pre-fix code in ~90% of runs; with emission
   serialized, every line must parse and the seqs must be an exact
   permutation. *)
let test_trace_sink_concurrent_emission () =
  let path = Filename.temp_file "omflp_trace" ".jsonl" in
  let sink = Trace_sink.open_file path in
  let n_tasks = 8 and per = 48 in
  with_pool ~jobs:4 (fun pool ->
      ignore
        (Pool.map pool
           (fun i ->
             let pad = String.make 100_000 (Char.chr (97 + (i mod 26))) in
             for j = 0 to per - 1 do
               Trace_sink.emit sink ~kind:"race"
                 [
                   ("task", Trace_sink.Int i);
                   ("j", Trace_sink.Int j);
                   ("pad", Trace_sink.String pad);
                 ]
             done)
           (Array.init n_tasks Fun.id)));
  Trace_sink.close sink;
  let lines = read_lines path in
  Sys.remove path;
  check_int "one line per record" (n_tasks * per) (List.length lines);
  let seqs =
    List.map
      (fun l ->
        match Minijson.of_string l with
        | exception Minijson.Parse_error e ->
            Alcotest.failf "torn trace line %S: %s" l e
        | json -> (
            match Minijson.member "seq" json with
            | Some (Minijson.Num f) -> int_of_float f
            | _ -> Alcotest.failf "trace line without seq: %s" l))
      lines
  in
  Alcotest.(check (list int))
    "seqs are a permutation (no duplicates, no gaps)"
    (List.init (n_tasks * per) Fun.id)
    (List.sort compare seqs)

(* ---------- report ---------- *)

let test_report_renders () =
  let c = Metrics.counter "test.obs.report_counter" in
  let t = Metrics.timer "test.obs.report_timer" in
  let h = Metrics.histogram "test.obs.report_hist" in
  with_metrics (fun () ->
      Metrics.add c 3;
      Metrics.record_span t 0.001;
      Metrics.observe h 2.5;
      let s = Report.render (Metrics.snapshot ()) in
      let contains sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      check_bool "mentions counter" true (contains "test.obs.report_counter");
      check_bool "mentions timer" true (contains "test.obs.report_timer");
      check_bool "mentions histogram" true (contains "test.obs.report_hist"))

(* ---------- instrumentation parity (acceptance criteria) ---------- *)

let clustered_instance ~seed ~n_requests =
  let rng = Splitmix.of_int seed in
  Generators.clustered rng ~clusters:3 ~per_cluster:4 ~n_requests
    ~n_commodities:8 ~side:100.0 ~spread:2.0
    ~cost:(fun ~n_commodities ~n_sites ->
      Omflp_commodity.Cost_function.power_law ~n_commodities ~n_sites ~x:1.0)

let test_pd_counters_match_trace () =
  let inst = clustered_instance ~seed:0xbe9c4 ~n_requests:40 in
  with_metrics (fun () ->
      let t = Pd_omflp.create (Instance.env inst) in
      Array.iter (fun r -> ignore (Pd_omflp.step t r)) inst.Instance.requests;
      let trace = List.concat (Pd_omflp.trace t) in
      let count pred = List.length (List.filter pred trace) in
      check_int "connect_small = trace"
        (count (function Pd_omflp.Connected_small _ -> true | _ -> false))
        (Metrics.value (Metrics.counter "pd.event.connect_small"));
      check_int "open_small = trace"
        (count (function Pd_omflp.Opened_small _ -> true | _ -> false))
        (Metrics.value (Metrics.counter "pd.event.open_small"));
      check_int "connect_large = trace"
        (count (function Pd_omflp.Connected_large _ -> true | _ -> false))
        (Metrics.value (Metrics.counter "pd.event.connect_large"));
      check_int "open_large = trace"
        (count (function Pd_omflp.Opened_large _ -> true | _ -> false))
        (Metrics.value (Metrics.counter "pd.event.open_large"));
      (* Every event-loop iteration fires exactly one event. *)
      check_int "loop_iters = total events" (List.length trace)
        (Metrics.value (Metrics.counter "pd.loop_iters"));
      check_int "requests counted"
        (Array.length inst.Instance.requests)
        (Metrics.value (Metrics.counter "pd.requests"));
      (* Openings counted = confirmed facilities (tentative small
         facilities discarded by a large opening are trace-only). *)
      let run = Pd_omflp.run_so_far t in
      check_int "facilities_opened = store"
        (List.length run.Run.facilities)
        (Metrics.value (Metrics.counter "pd.facilities_opened")))

let test_cache_exact_under_metrics () =
  (* Bid caches stay exact while the instrumentation layer is enabled
     (the counters must not perturb the algorithm). *)
  let inst = clustered_instance ~seed:0xca5e ~n_requests:50 in
  with_metrics (fun () ->
      let t = Pd_omflp.create (Instance.env inst) in
      Array.iter
        (fun r ->
          ignore (Pd_omflp.step t r);
          check_bool "drift below 1e-6" true (Pd_omflp.cache_drift t < 1e-6))
        inst.Instance.requests;
      check_bool "cache updates counted" true
        (Metrics.value (Metrics.counter "pd.cache_updates") > 0))

let test_disabled_runs_unchanged () =
  (* Instrumentation off: the run is identical to an instrumented one
     (counters never feed back into decisions). *)
  let inst = clustered_instance ~seed:42 ~n_requests:30 in
  Metrics.set_enabled false;
  let plain = Simulator.run (module Pd_omflp) inst in
  let observed =
    with_metrics (fun () -> Simulator.run (module Pd_omflp) inst)
  in
  check_float 1e-12 "same total cost" (Run.total_cost plain)
    (Run.total_cost observed);
  check_int "same facilities"
    (List.length plain.Run.facilities)
    (List.length observed.Run.facilities);
  (* The observed run carries per-request latencies, the plain one not. *)
  check_int "plain: no latencies" 0 (Array.length plain.Run.step_seconds);
  check_int "observed: one latency per request"
    (Array.length inst.Instance.requests)
    (Array.length observed.Run.step_seconds)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "registration idempotent" `Quick
            test_counter_registration_idempotent;
          Alcotest.test_case "registry growth" `Quick test_many_counters;
          Alcotest.test_case "timer" `Quick test_timer;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
        ] );
      ( "shards",
        [
          Alcotest.test_case "parallel counters merge exact" `Quick
            test_parallel_counters_merge_exact;
          Alcotest.test_case "parallel timers/histograms merge" `Quick
            test_parallel_timers_histograms_merge;
          Alcotest.test_case "registration vs snapshot race" `Quick
            test_registration_vs_snapshot_race;
          QCheck_alcotest.to_alcotest prop_shards_equal_serial;
        ] );
      ( "trace",
        [
          Alcotest.test_case "json lines" `Quick test_trace_sink_json_lines;
          Alcotest.test_case "append across sinks" `Quick
            test_trace_sink_appends;
          Alcotest.test_case "concurrent emission has no torn lines" `Quick
            test_trace_sink_concurrent_emission;
        ] );
      ( "report",
        [ Alcotest.test_case "render" `Quick test_report_renders ] );
      ( "parity",
        [
          Alcotest.test_case "PD counters = trace" `Quick
            test_pd_counters_match_trace;
          Alcotest.test_case "cache exact under metrics" `Quick
            test_cache_exact_under_metrics;
          Alcotest.test_case "disabled run unchanged" `Quick
            test_disabled_runs_unchanged;
        ] );
    ]
