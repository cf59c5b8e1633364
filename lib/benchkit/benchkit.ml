(* Benchmark harness: regenerates every table/figure of the reproduction
   (experiments E1-E6, E8-E11, see DESIGN.md), times the algorithms with
   Bechamel (experiment E7, the Section 4 efficiency claim), reports
   lib/obs work counters for seeded runs, and optionally gates the
   ns/run rows against a committed baseline (BENCH_BASELINE.json).

   [omflp bench] parses its flags into a {!config} and calls {!run}. *)

open Bechamel
open Omflp_prelude
open Omflp_instance

type config = {
  quick : bool;
  tables_only : bool;
  bench_only : bool;
  jobs : int;
  json_path : string option;
  baseline_path : string option;
  max_regression : float;
  family : Problem_env.Family.t option;
      (* restrict the bechamel rows to one problem family; [None] runs
         everything *)
}

let default_max_regression = 0.25

(* ---------- Part 1: experiment tables (one per paper artifact) ---------- *)

let run_tables ~quick () =
  print_endline "====================================================";
  print_endline " OMFLP reproduction: experiment tables (E1-E6, E8-E11)";
  print_endline " paper: Castenow et al., SPAA 2020 (arXiv:2005.08391)";
  print_endline "====================================================";
  List.iter Omflp_experiments.Exp_common.print_section
    (Omflp_experiments.Suite.run ~quick ~which:"all" ())

(* ---------- Part 2: Bechamel microbenchmarks ---------- *)

(* Workload shared by the per-algorithm benches: a clustered instance with
   a sqrt construction cost. *)
let bench_instance ~n_sites ~n_requests ~n_commodities =
  let rng = Splitmix.of_int 0xbe9c4 in
  Generators.clustered rng ~clusters:(max 2 (n_sites / 4)) ~per_cluster:4
    ~n_requests ~n_commodities ~side:100.0 ~spread:2.0
    ~cost:(fun ~n_commodities ~n_sites ->
      Omflp_commodity.Cost_function.power_law ~n_commodities ~n_sites ~x:1.0)

let full_run (module A : Omflp_core.Algo_intf.ALGO) inst () =
  let t = A.create ~seed:17 (Instance.env inst) in
  Array.iter (fun r -> ignore (A.step t r)) inst.Instance.requests;
  Omflp_core.Run.total_cost (A.run_so_far t)

(* Serve-layer throughput: the event loop's in-process shape — one
   session, no checkpoint IO, requests stepped in per-turn batches of
   32 with full decision-record assembly. What one loop of the socket
   server achieves, minus the sockets. *)
let serve_batch = 32

let serve_bench_n_requests = 60

let serve_bench_name =
  Printf.sprintf "serve/session PD-OMFLP (n=%d, batch=%d)"
    serve_bench_n_requests serve_batch

let serve_full_run inst () =
  let algo = (module Omflp_core.Pd_omflp : Omflp_core.Algo_intf.ALGO) in
  let s = Omflp_serve.Session.create ~algo ~seed:17 (Instance.env inst) in
  let reqs = inst.Instance.requests in
  let n = Array.length reqs in
  let i = ref 0 in
  while !i < n do
    let k = min serve_batch (n - !i) in
    ignore (Omflp_serve.Session.handle_batch s (Array.sub reqs !i k));
    i := !i + k
  done;
  Omflp_serve.Session.count s

let serve_benches () =
  let inst =
    bench_instance ~n_sites:16 ~n_requests:serve_bench_n_requests
      ~n_commodities:8
  in
  [
    Test.make ~name:serve_bench_name (Staged.stage (serve_full_run inst));
  ]

(* One Test.make per table/figure artifact: the computational kernel that
   regenerates it. *)
let table_kernels () =
  let t2_instance =
    let rng = Splitmix.of_int 0xe1 in
    Generators.theorem2 rng ~n_commodities:256
  in
  let sweep_instance =
    let rng = Splitmix.of_int 0xe3 in
    Generators.single_point_adversary rng ~n_commodities:64
      ~cost:(fun ~n_commodities ~n_sites ->
        Omflp_commodity.Cost_function.power_law ~n_commodities ~n_sites ~x:1.0)
      ~n_requested:8
  in
  let line_instance =
    let rng = Splitmix.of_int 0xe4 in
    Generators.line rng ~n_sites:10 ~n_requests:100 ~n_commodities:8
      ~length:100.0
      ~demand:(Demand.Zipf_bundle { zipf_s = 1.0; max_size = 4 })
      ~cost:(fun ~n_commodities ~n_sites ->
        Omflp_commodity.Cost_function.power_law ~n_commodities ~n_sites ~x:1.0)
  in
  let clustered_instance =
    bench_instance ~n_sites:12 ~n_requests:50 ~n_commodities:8
  in
  let linear_instance =
    let rng = Splitmix.of_int 0xe6 in
    Generators.clustered rng ~clusters:3 ~per_cluster:4 ~n_requests:30
      ~n_commodities:8 ~side:100.0 ~spread:2.0
      ~cost:(fun ~n_commodities ~n_sites ->
        Omflp_commodity.Cost_function.linear ~n_commodities ~n_sites
          ~per_commodity:1.0)
  in
  [
    Test.make ~name:"E1/theorem2-adversary |S|=256 (PD)"
      (Staged.stage (full_run (module Omflp_core.Pd_omflp) t2_instance));
    Test.make ~name:"E2/figure2-curves"
      (Staged.stage (fun () ->
           let acc = ref 0.0 in
           for i = 0 to 200 do
             let x = 2.0 *. float_of_int i /. 200.0 in
             acc :=
               !acc
               +. Omflp_experiments.Exp_bounds_curve.upper_factor
                    ~n_commodities:10_000 ~x
               +. Omflp_experiments.Exp_bounds_curve.lower_factor
                    ~n_commodities:10_000 ~x
           done;
           !acc));
    Test.make ~name:"E3/cost-sweep g_1 |S|=64 (PD)"
      (Staged.stage (full_run (module Omflp_core.Pd_omflp) sweep_instance));
    Test.make ~name:"E4/line n=100 (PD)"
      (Staged.stage (full_run (module Omflp_core.Pd_omflp) line_instance));
    Test.make ~name:"E5/clustered n=50 (PD)"
      (Staged.stage (full_run (module Omflp_core.Pd_omflp) clustered_instance));
    Test.make ~name:"E6/linear-cost ablation (PD)"
      (Staged.stage (full_run (module Omflp_core.Pd_omflp) linear_instance));
    (let heavy_instance =
       let rng = Splitmix.of_int 0xe8 in
       Generators.clustered rng ~clusters:3 ~per_cluster:4 ~n_requests:30
         ~n_commodities:6 ~side:100.0 ~spread:2.0
         ~cost:(fun ~n_commodities ~n_sites ->
           let base =
             Omflp_commodity.Cost_function.power_law ~n_commodities ~n_sites
               ~x:1.0
           in
           let surcharges = Array.make n_commodities 0.0 in
           surcharges.(0) <- 10.0;
           Omflp_commodity.Cost_function.with_surcharge base ~surcharges)
     in
     Test.make ~name:"E8/heavy-commodity (HEAVY-AWARE)"
       (Staged.stage (full_run (module Omflp_core.Heavy_aware) heavy_instance)));
  ]

(* E7: per-request efficiency, PD vs RAND vs baselines — the paper's
   Section 4 claim that the randomized algorithm is much cheaper to run. *)
let algo_benches () =
  let inst = bench_instance ~n_sites:16 ~n_requests:60 ~n_commodities:8 in
  List.map
    (fun (name, algo) ->
      Test.make ~name:(Printf.sprintf "E7/full-run %s (n=60)" name)
        (Staged.stage (full_run algo inst)))
    (Omflp_core.Registry.all ()
    @ [
        ( Omflp_core.Heavy_aware.name,
          (module Omflp_core.Heavy_aware : Omflp_core.Algo_intf.ALGO) );
      ])

let scaling_benches ~quick () =
  (* PD and RAND as n grows: PD's bid caches keep a request's work
     independent of the history except at facility openings, which
     revisit every past request; RAND is near-linear. *)
  List.concat_map
    (fun n_requests ->
      let inst = bench_instance ~n_sites:12 ~n_requests ~n_commodities:8 in
      [
        Test.make ~name:(Printf.sprintf "E7/scaling PD n=%d" n_requests)
          (Staged.stage (full_run (module Omflp_core.Pd_omflp) inst));
        Test.make ~name:(Printf.sprintf "E7/scaling RAND n=%d" n_requests)
          (Staged.stage (full_run (module Omflp_core.Rand_omflp) inst));
      ])
    (if quick then [ 25; 50 ] else [ 25; 50; 100; 200 ])

let commodity_sweep_benches ~quick () =
  (* PD and RAND as |S| grows on the single-point adversary. *)
  List.concat_map
    (fun s ->
      let inst =
        let rng = Splitmix.of_int (0x5e + s) in
        Generators.theorem2 rng ~n_commodities:s
      in
      [
        Test.make ~name:(Printf.sprintf "E7/sweep-|S| PD |S|=%d" s)
          (Staged.stage (full_run (module Omflp_core.Pd_omflp) inst));
        Test.make ~name:(Printf.sprintf "E7/sweep-|S| RAND |S|=%d" s)
          (Staged.stage (full_run (module Omflp_core.Rand_omflp) inst));
      ])
    (if quick then [ 64; 256 ] else [ 64; 256; 1024 ])

let site_sweep_benches ~quick () =
  (* PD as the number of candidate sites grows (the event loop scans every
     site). *)
  List.map
    (fun n_sites ->
      let inst = bench_instance ~n_sites ~n_requests:40 ~n_commodities:6 in
      Test.make ~name:(Printf.sprintf "E7/sweep-|M| PD |M|=%d" n_sites)
        (Staged.stage (full_run (module Omflp_core.Pd_omflp) inst)))
    (if quick then [ 8; 16 ] else [ 8; 16; 32; 64 ])

(* Family rows: every registered algorithm of the non-OMFLP families on
   the clustered workload with family data bolted on — non-metric gets an
   asymmetric perturbation of the metric, leasing a three-type menu. *)
let family_instances () =
  let base = bench_instance ~n_sites:12 ~n_requests:40 ~n_commodities:6 in
  let nonmetric =
    let n = Instance.n_sites base in
    let rng = Splitmix.of_int 0xfa01 in
    let conn =
      Array.init n (fun m ->
          Array.init n (fun s ->
              let scale = Sampler.uniform_float rng ~lo:0.25 ~hi:4.0 in
              (scale
              *. Omflp_metric.Finite_metric.dist base.Instance.metric m s)
              +. Sampler.uniform_float rng ~lo:0.0 ~hi:0.5))
    in
    Instance.with_ext base (Problem_env.Nonmetric { conn })
  in
  let leasing =
    Instance.with_ext base
      (Problem_env.Leasing
         { durations = [| 1; 4; 16 |]; factors = [| 1.0; 2.5; 6.0 |] })
  in
  [ nonmetric; leasing ]

let family_benches ?only () =
  List.concat_map
    (fun inst ->
      let fam = Instance.family inst in
      if only <> None && only <> Some fam then []
      else
        List.map
          (fun (name, algo) ->
            Test.make
              ~name:
                (Printf.sprintf "E12/family-%s %s (n=40)"
                   (Problem_env.Family.to_string fam)
                   name)
              (Staged.stage (full_run algo inst)))
          (Omflp_core.Registry.of_family fam))
    (family_instances ())

let offline_benches () =
  let inst = bench_instance ~n_sites:12 ~n_requests:30 ~n_commodities:6 in
  [
    Test.make ~name:"offline/greedy n=30"
      (Staged.stage (fun () -> (Omflp_offline.Greedy_offline.solve inst).cost));
  ]

(* Runs the bechamel suite and returns [(name, ns_per_run option)] rows
   sorted by benchmark name, for both the printed table and BENCH.json. *)
let run_benchmarks ?family ~quick () =
  print_endline "";
  print_endline "====================================================";
  print_endline " E7: Bechamel microbenchmarks (ns per full run)";
  print_endline "====================================================";
  let cfg =
    Benchmark.cfg ~limit:300
      ~quota:(Time.second (if quick then 0.2 else 0.5))
      ~kde:None ()
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let tests =
    match family with
    | Some Problem_env.Family.Omflp ->
        table_kernels () @ algo_benches ()
        @ scaling_benches ~quick ()
        @ commodity_sweep_benches ~quick ()
        @ site_sweep_benches ~quick ()
        @ offline_benches () @ serve_benches ()
    | Some fam -> family_benches ~only:fam ()
    | None ->
        table_kernels () @ algo_benches ()
        @ scaling_benches ~quick ()
        @ commodity_sweep_benches ~quick ()
        @ site_sweep_benches ~quick ()
        @ offline_benches () @ serve_benches ()
        @ family_benches ()
  in
  let table = Texttable.create [ "benchmark"; "ns/run"; "ms/run" ] in
  (* Collect every OLS estimate first and sort by benchmark name:
     [Hashtbl.iter] order is unspecified, so printing rows straight out
     of it made the table row order vary between runs. *)
  let rows = ref [] in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      Hashtbl.iter (fun name result -> rows := (name, result) :: !rows) results)
    tests;
  let rows =
    List.map
      (fun (name, result) ->
        match Analyze.OLS.estimates result with
        | Some (est :: _) -> (name, Some est)
        | _ -> (name, None))
      (List.sort (fun (a, _) (b, _) -> String.compare a b) !rows)
  in
  List.iter
    (fun (name, est) ->
      match est with
      | Some est ->
          Texttable.add_row table
            [
              name;
              Printf.sprintf "%.0f" est;
              Printf.sprintf "%.3f" (est /. 1e6);
            ]
      | None -> Texttable.add_row table [ name; "n/a"; "n/a" ])
    rows;
  Texttable.print table;
  (match List.assoc_opt serve_bench_name rows with
  | Some (Some ns) when ns > 0.0 ->
      Printf.printf
        "serve throughput: %.0f requests/sec (one domain, in-process \
         session stepping)\n"
        (float_of_int serve_bench_n_requests *. 1e9 /. ns)
  | _ -> ());
  rows

(* Work counters (lib/obs): deterministic seeded full runs, reported as
   counted work — event-loop iterations, events by kind, cache updates,
   coin flips, facility openings — so perf claims can be cross-checked
   against what the algorithms actually did, not just ns/run. *)
let run_work_counters ~quick () =
  print_endline "";
  print_endline "====================================================";
  print_endline " E7b: work counters (seeded full runs, lib/obs)";
  print_endline "====================================================";
  let n_requests = if quick then 25 else 100 in
  Printf.printf "workload: clustered, |M|=12, n=%d, |S|=8, seed fixed\n"
    n_requests;
  let inst = bench_instance ~n_sites:12 ~n_requests ~n_commodities:8 in
  let table = Texttable.create [ "algorithm"; "counter"; "value" ] in
  let rows = ref [] in
  let was_enabled = Omflp_obs.Metrics.enabled () in
  Omflp_obs.Metrics.set_enabled true;
  List.iter
    (fun (name, algo) ->
      Omflp_obs.Metrics.reset ();
      ignore (full_run algo inst ());
      let snap = Omflp_obs.Metrics.snapshot () in
      List.iter
        (fun (c : Omflp_obs.Metrics.counter_view) ->
          if c.c_value > 0 then begin
            Texttable.add_row table [ name; c.c_name; string_of_int c.c_value ];
            rows := (name, c.c_name, c.c_value) :: !rows
          end)
        snap.Omflp_obs.Metrics.counters)
    [
      ( Omflp_core.Pd_omflp.name,
        (module Omflp_core.Pd_omflp : Omflp_core.Algo_intf.ALGO) );
      (Omflp_core.Rand_omflp.name, (module Omflp_core.Rand_omflp));
    ];
  Omflp_obs.Metrics.reset ();
  Omflp_obs.Metrics.set_enabled was_enabled;
  Texttable.print table;
  List.rev !rows

(* ---------- allocation profile: minor words per request ---------- *)

(* [Gc.minor_words] deltas over repeated seeded full runs, reported per
   request so the number is workload-size independent. The committed
   baseline gates growth separately from ns/run: perf work that trades
   speed for garbage (or a refactor that quietly reboxes the hot path)
   shows up here even on a fast machine. *)
let alloc_reps = 10

let run_allocations () =
  print_endline "";
  print_endline "====================================================";
  print_endline " E7c: allocation profile (minor words per request)";
  print_endline "====================================================";
  let inst = bench_instance ~n_sites:16 ~n_requests:60 ~n_commodities:8 in
  let n_requests = Array.length inst.Instance.requests in
  let workloads =
    [
      ( "PD-OMFLP full-run (n=60)",
        fun () -> ignore (full_run (module Omflp_core.Pd_omflp) inst ()) );
      ( "RAND-OMFLP full-run (n=60)",
        fun () -> ignore (full_run (module Omflp_core.Rand_omflp) inst ()) );
      ( "GREEDY full-run (n=60)",
        fun () -> ignore (full_run (module Omflp_core.Greedy_baseline) inst ())
      );
      (serve_bench_name, fun () -> ignore (serve_full_run inst ()));
    ]
  in
  let table = Texttable.create [ "workload"; "minor words/request" ] in
  let rows =
    List.map
      (fun (name, f) ->
        (* One warm run first: lazy cost tables and metric rows
           materialize outside the measured window. *)
        f ();
        let w0 = Gc.minor_words () in
        for _ = 1 to alloc_reps do
          f ()
        done;
        let per_request =
          (Gc.minor_words () -. w0) /. float_of_int (alloc_reps * n_requests)
        in
        Texttable.add_row table [ name; Printf.sprintf "%.1f" per_request ];
        (name, per_request))
      workloads
  in
  Texttable.print table;
  rows

(* ---------- BENCH.json: the perf trajectory across PRs ---------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json ~quick ~jobs path ~bench_rows ~counter_rows ~alloc_rows =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema\": \"omflp.bench.v1\",\n";
  out "  \"quick\": %b,\n" quick;
  out "  \"jobs\": %d,\n" jobs;
  out "  \"benchmarks\": [\n";
  List.iteri
    (fun i (name, est) ->
      out "    {\"name\": \"%s\", \"ns_per_run\": %s}%s\n" (json_escape name)
        (match est with
        | Some v when Float.is_finite v -> Printf.sprintf "%.6g" v
        | _ -> "null")
        (if i = List.length bench_rows - 1 then "" else ","))
    bench_rows;
  out "  ],\n";
  out "  \"allocations\": [\n";
  List.iteri
    (fun i (name, per_request) ->
      out "    {\"name\": \"%s\", \"minor_words_per_request\": %.3f}%s\n"
        (json_escape name) per_request
        (if i = List.length alloc_rows - 1 then "" else ","))
    alloc_rows;
  out "  ],\n";
  out "  \"work_counters\": [\n";
  List.iteri
    (fun i (algo, counter, v) ->
      out "    {\"algorithm\": \"%s\", \"counter\": \"%s\", \"value\": %d}%s\n"
        (json_escape algo) (json_escape counter) v
        (if i = List.length counter_rows - 1 then "" else ","))
    counter_rows;
  out "  ]\n";
  out "}\n";
  close_out oc;
  Printf.printf "\nwrote %s\n" path

(* ---------- Regression gates vs a committed baseline ---------- *)

type regression = {
  reg_name : string;
  baseline : float;
  current : float;
  ratio : float;
}

type gate_report = {
  compared : int;
  skipped : string list;  (** current rows with no (numeric) baseline row *)
  unmatched : string list;  (** baseline rows no current row was compared to *)
  regressions : regression list;
}

(* The ns/run gate and the allocation gate share one reader, comparer
   and printer; they differ only in these. *)
type gate = {
  section : string;  (* the baseline's array of rows *)
  field : string;  (* the numeric field of a row *)
  missing : string -> string;  (* error for a baseline without [section] *)
  vacuous : baseline_path:string -> n_rows:int -> skipped:int -> string;
  title : string;
  label : string;  (* "<label>: OK" / "<label>: FAIL" *)
  noun : string;
  verb : string;  (* "no <noun> <verb> past the threshold" *)
  columns : string list;  (* name, baseline and current column headers *)
  decimals : int;  (* of the baseline and current columns *)
}

let vacuous_error ~baseline_path ~n_rows ~skipped =
  Printf.sprintf
    "vacuous comparison: 0 of %d benchmark row(s) matched baseline %s (%d \
     skipped) — wrong, empty, or stale baseline file"
    n_rows baseline_path skipped

(* Allocation growth is gated tighter than wall-clock: minor words per
   request are deterministic for a fixed workload, so noise headroom is
   unnecessary and 10% growth already means a reboxed hot path. *)
let alloc_max_growth = 0.10

(* A baseline predating the allocations section is a hard error, not a
   skip: the gate would otherwise pass forever against a stale file. *)
let missing_alloc_error ~baseline_path =
  Printf.sprintf
    "baseline %s has no \"allocations\" section — regenerate it with \
     --json; an allocation gate that compares nothing proves nothing"
    baseline_path

let ns_gate =
  {
    section = "benchmarks";
    field = "ns_per_run";
    missing = Printf.sprintf "baseline %s has no \"benchmarks\" array";
    vacuous = vacuous_error;
    title = "bench regression gate";
    label = "gate";
    noun = "row";
    verb = "regressed";
    columns = [ "benchmark"; "baseline ns"; "current ns" ];
    decimals = 0;
  }

let alloc_gate =
  {
    section = "allocations";
    field = "minor_words_per_request";
    missing = (fun baseline_path -> missing_alloc_error ~baseline_path);
    vacuous =
      (fun ~baseline_path ~n_rows ~skipped ->
        Printf.sprintf
          "vacuous allocation comparison: 0 of %d row(s) matched baseline \
           %s (%d skipped) — wrong, empty, or stale baseline file"
          n_rows baseline_path skipped);
    title = "allocation gate (minor words per request)";
    label = "allocation gate";
    noun = "workload";
    verb = "grew";
    columns = [ "workload"; "baseline words/req"; "current words/req" ];
    decimals = 1;
  }

(* Reads the gate's rows of an [omflp.bench.v1] file into
   [(name, value)] pairs, dropping [null] values. *)
let read_rows g path =
  match Minijson.of_file path with
  | exception Sys_error msg -> Error ("cannot read baseline: " ^ msg)
  | exception Minijson.Parse_error msg ->
      Error (Printf.sprintf "cannot parse baseline %s: %s" path msg)
  | json -> (
      match Option.bind (Minijson.member g.section json) Minijson.to_list with
      | None -> Error (g.missing path)
      | Some rows ->
          Ok
            (List.filter_map
               (fun row ->
                 match
                   ( Option.bind (Minijson.member "name" row) Minijson.to_string,
                     Option.bind (Minijson.member g.field row) Minijson.to_float
                   )
                 with
                 | Some name, Some v -> Some (name, v)
                 | _ -> None)
               rows))

(* Compares by NAME over the intersection of the two row sets, so a
   quick run (fewer scaling points) still gates against a full baseline
   and newly-added rows don't fail the gate. *)
let compare_rows g ~baseline_path ~threshold rows =
  Result.bind (read_rows g baseline_path) (fun baseline ->
      let compared = ref [] and skipped = ref [] and regs = ref [] in
      List.iter
        (fun (name, est) ->
          match (est, List.assoc_opt name baseline) with
          | Some current, Some base when base > 0.0 ->
              compared := name :: !compared;
              let ratio = current /. base in
              if ratio > 1.0 +. threshold then
                regs :=
                  { reg_name = name; baseline = base; current; ratio } :: !regs
          | _ -> skipped := name :: !skipped)
        rows;
      (* A gate that compared nothing proves nothing (renamed rows, an
         empty or foreign baseline): a hard failure, never a pass. *)
      if !compared = [] then
        Error
          (g.vacuous ~baseline_path ~n_rows:(List.length rows)
             ~skipped:(List.length !skipped))
      else
        Ok
          {
            compared = List.length !compared;
            skipped = List.rev !skipped;
            (* baseline names left out of the comparison, in baseline
               order *)
            unmatched =
              List.filter_map
                (fun (name, _) ->
                  if List.mem name !compared then None else Some name)
                baseline;
            regressions = List.rev !regs;
          })

let read_baseline = read_rows ns_gate

let compare_baseline ~baseline_path ~max_regression rows =
  compare_rows ns_gate ~baseline_path ~threshold:max_regression rows

let read_alloc_baseline = read_rows alloc_gate

let compare_allocations ~baseline_path rows =
  compare_rows alloc_gate ~baseline_path ~threshold:alloc_max_growth
    (List.map (fun (name, w) -> (name, Some w)) rows)

(* Prints the gate's verdict and returns its exit code: 0 pass,
   1 regression, 2 unusable baseline. Every skipped row is printed by
   name, in both directions: a renamed or dropped row must be visible in
   the gate output, not just counted. *)
let print_gate g ~baseline_path ~threshold result =
  print_endline "";
  print_endline "====================================================";
  print_endline (" " ^ g.title);
  print_endline "====================================================";
  match result with
  | Error msg ->
      Printf.printf "GATE ERROR: %s\n" msg;
      2
  | Ok report ->
      Printf.printf
        "baseline %s: %d row(s) compared, %d current row(s) without a \
         baseline row, %d baseline row(s) not measured, threshold +%.0f%%\n"
        baseline_path report.compared
        (List.length report.skipped)
        (List.length report.unmatched)
        (100.0 *. threshold);
      List.iter (Printf.printf "  skipped, no baseline row: %s\n")
        report.skipped;
      List.iter (Printf.printf "  skipped, not measured: %s\n")
        report.unmatched;
      if report.regressions = [] then begin
        Printf.printf "%s: OK (no %s %s past the threshold)\n" g.label g.noun
          g.verb;
        0
      end
      else begin
        let table = Texttable.create (g.columns @ [ "ratio" ]) in
        List.iter
          (fun r ->
            Texttable.add_row table
              [
                r.reg_name;
                Printf.sprintf "%.*f" g.decimals r.baseline;
                Printf.sprintf "%.*f" g.decimals r.current;
                Printf.sprintf "%.2fx" r.ratio;
              ])
          report.regressions;
        Texttable.print table;
        Printf.printf "%s: FAIL (%d %s(s) %s > +%.0f%%)\n" g.label
          (List.length report.regressions)
          g.noun g.verb (100.0 *. threshold);
        1
      end

(* ---------- Entry point of [omflp bench] ---------- *)

let run config =
  Pool.set_default_jobs config.jobs;
  if not config.bench_only then run_tables ~quick:config.quick ();
  if config.tables_only then begin
    Option.iter
      (fun path ->
        write_json ~quick:config.quick ~jobs:config.jobs path ~bench_rows:[]
          ~counter_rows:[] ~alloc_rows:[])
      config.json_path;
    0
  end
  else begin
    let bench_rows =
      run_benchmarks ?family:config.family ~quick:config.quick ()
    in
    let counter_rows = run_work_counters ~quick:config.quick () in
    let alloc_rows = run_allocations () in
    Option.iter
      (fun path ->
        write_json ~quick:config.quick ~jobs:config.jobs path ~bench_rows
          ~counter_rows ~alloc_rows)
      config.json_path;
    match config.baseline_path with
    | None -> 0
    | Some baseline_path ->
        let max_regression = config.max_regression in
        let ns =
          print_gate ns_gate ~baseline_path ~threshold:max_regression
            (compare_baseline ~baseline_path ~max_regression bench_rows)
        in
        let alloc =
          print_gate alloc_gate ~baseline_path ~threshold:alloc_max_growth
            (compare_allocations ~baseline_path alloc_rows)
        in
        max ns alloc
  end
