(* omflp — command-line front end: run online algorithms, solve offline,
   and regenerate the paper's experiments. *)

open Cmdliner
open Omflp_prelude
open Omflp_instance

let make_cost kind ~n_commodities ~n_sites =
  match kind with
  | "linear" ->
      Omflp_commodity.Cost_function.linear ~n_commodities ~n_sites
        ~per_commodity:1.0
  | "constant" ->
      Omflp_commodity.Cost_function.constant ~n_commodities ~n_sites ~cost:1.0
  | "theorem2" -> Omflp_commodity.Cost_function.theorem2 ~n_commodities ~n_sites
  | s when String.length s > 2 && String.sub s 0 2 = "x=" ->
      let x = float_of_string (String.sub s 2 (String.length s - 2)) in
      Omflp_commodity.Cost_function.power_law ~n_commodities ~n_sites ~x
  | other ->
      invalid_arg
        (Printf.sprintf
           "unknown cost %S (use linear | constant | theorem2 | x=<v>)" other)

let make_instance ~family ~seed ~n_sites ~n_requests ~n_commodities ~cost_kind =
  let rng = Splitmix.of_int seed in
  let cost = make_cost cost_kind in
  match family with
  | "adversary" -> Generators.theorem2 rng ~n_commodities
  | "line" ->
      Generators.line rng ~n_sites ~n_requests ~n_commodities ~length:100.0
        ~demand:
          (Demand.Zipf_bundle { zipf_s = 1.0; max_size = min 3 n_commodities })
        ~cost
  | "clustered" ->
      Generators.clustered rng ~clusters:(max 2 (n_sites / 4))
        ~per_cluster:4 ~n_requests ~n_commodities ~side:100.0 ~spread:2.0 ~cost
  | "network" ->
      Generators.network rng ~n_sites ~extra_edges:(n_sites / 2) ~n_requests
        ~n_commodities
        ~demand:(Demand.Bernoulli { p = 0.4 })
        ~cost
  | "uniform" ->
      Generators.uniform_metric rng ~n_sites ~d:10.0 ~n_requests ~n_commodities
        ~demand:(Demand.Bernoulli { p = 0.4 })
        ~cost
  | other ->
      invalid_arg
        (Printf.sprintf
           "unknown family %S (adversary | line | clustered | network | uniform)"
           other)

(* Shared argument definitions. The cross-command flags — --seed,
   --jobs, --metrics, --trace — live in lib/cli (Cli_flags) so every
   subcommand parses and errors identically; instance-shape flags stay
   here. *)
module Cli_flags = Omflp_cli_support.Cli_flags

let seed_arg = Cli_flags.seed_arg
let jobs_arg = Cli_flags.jobs_arg
let metrics_arg = Cli_flags.metrics_arg
let trace_arg = Cli_flags.trace_arg
let with_obs = Cli_flags.with_obs

let family_arg =
  Arg.(
    value
    & opt string "line"
    & info [ "family" ]
        ~doc:"Instance family: adversary | line | clustered | network | uniform.")

(* Problem-family flag shared by check and bench: validated here so both
   commands refuse an unknown family with the same message. *)
let problem_family_of_flag ~flag s =
  match s with
  | "all" -> None
  | s -> (
      match Omflp_instance.Problem_env.Family.of_string s with
      | Some f -> Some f
      | None ->
          Cli_flags.die
            (Printf.sprintf
               "omflp: %s: expected omflp|nonmetric-fl|leasing|all, got %S"
               flag s))

(* Resolve --algo NAME against the registry and the instance's problem
   family; both failure modes are usage errors, not internal ones. *)
let algo_for_instance name inst =
  match Omflp_core.Registry.find name with
  | Error e ->
      Cli_flags.die ("omflp: " ^ Omflp_core.Registry.unknown_algo_message e)
  | Ok a ->
      let (module A : Omflp_core.Algo_intf.ALGO) = a in
      if A.family <> Instance.family inst then
        Cli_flags.die
          ("omflp: "
          ^ Omflp_instance.Problem_env.mismatch_message ~algo:name
              ~declared:A.family ~got:(Instance.family inst));
      a

let sites_arg =
  Arg.(value & opt int 12 & info [ "sites" ] ~doc:"Number of metric points.")

let requests_arg =
  Arg.(value & opt int 30 & info [ "requests" ] ~doc:"Number of requests.")

let commodities_arg =
  Arg.(value & opt int 6 & info [ "commodities" ] ~doc:"Number of commodities |S|.")

let cost_arg =
  Arg.(
    value
    & opt string "x=1"
    & info [ "cost" ]
        ~doc:"Construction cost: linear | constant | theorem2 | x=<v> (power law).")

(* omflp run *)
let run_cmd =
  let algo_arg =
    Arg.(
      value
      & opt string "all"
      & info [ "algo" ] ~doc:"Algorithm name or 'all'.")
  in
  let action algo family seed n_sites n_requests n_commodities cost_kind
      metrics trace =
    let inst =
      make_instance ~family ~seed ~n_sites ~n_requests ~n_commodities ~cost_kind
    in
    Format.printf "%a@." Instance.pp inst;
    with_obs ~metrics ~trace (fun () ->
        let runs =
          if algo = "all" then Omflp_core.Simulator.run_all ~seed inst
          else
            let a = algo_for_instance algo inst in
            [ (algo, Omflp_core.Simulator.run ~seed a inst) ]
        in
        let bracket = Omflp_offline.Opt_estimate.bracket inst in
        Printf.printf "offline bracket: [%.4g, %.4g] (%s / %s)\n" bracket.lower
          bracket.upper bracket.lower_method bracket.upper_method;
        List.iter
          (fun (_, run) ->
            Format.printf "%a  ratio<=%.3f@." Omflp_core.Run.pp run
              (Omflp_core.Run.total_cost run /. bracket.upper))
          runs)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run online algorithm(s) on a generated instance.")
    Term.(
      const action $ algo_arg $ family_arg $ seed_arg $ sites_arg
      $ requests_arg $ commodities_arg $ cost_arg $ metrics_arg $ trace_arg)

(* omflp solve *)
let solve_cmd =
  let action family seed n_sites n_requests n_commodities cost_kind =
    let inst =
      make_instance ~family ~seed ~n_sites ~n_requests ~n_commodities ~cost_kind
    in
    Format.printf "%a@." Instance.pp inst;
    let greedy = Omflp_offline.Greedy_offline.solve inst in
    Printf.printf "greedy offline: cost %.4g with %d facilities\n" greedy.cost
      (List.length greedy.facilities);
    let ls = Omflp_offline.Local_search.improve inst greedy.facilities in
    Printf.printf "+ local search: cost %.4g (%d moves)\n" ls.cost ls.moves;
    let bracket = Omflp_offline.Opt_estimate.bracket inst in
    Printf.printf "bracket: [%.4g, %.4g] (%s / %s)%s\n" bracket.lower
      bracket.upper bracket.lower_method bracket.upper_method
      (if Omflp_offline.Opt_estimate.certified bracket then " [exact]" else "")
  in
  Cmd.v (Cmd.info "solve" ~doc:"Solve a generated instance offline.")
    Term.(
      const action $ family_arg $ seed_arg $ sites_arg $ requests_arg
      $ commodities_arg $ cost_arg)

(* omflp gen *)
let gen_cmd =
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~doc:"Output file for the instance.")
  in
  let action out family seed n_sites n_requests n_commodities cost_kind =
    let inst =
      make_instance ~family ~seed ~n_sites ~n_requests ~n_commodities ~cost_kind
    in
    Serial.save_file out inst;
    Format.printf "wrote %a to %s@." Instance.pp inst out
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate an instance and save it to a file.")
    Term.(
      const action $ out_arg $ family_arg $ seed_arg $ sites_arg
      $ requests_arg $ commodities_arg $ cost_arg)

(* omflp replay *)
let replay_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Instance file written by 'omflp gen'.")
  in
  let algo_arg =
    Arg.(value & opt string "all" & info [ "algo" ] ~doc:"Algorithm name or 'all'.")
  in
  let action file algo seed metrics trace =
    let inst = Serial.load_file file in
    Format.printf "%a@." Instance.pp inst;
    with_obs ~metrics ~trace (fun () ->
        let runs =
          if algo = "all" then Omflp_core.Simulator.run_all ~seed inst
          else
            let a = algo_for_instance algo inst in
            [ (algo, Omflp_core.Simulator.run ~seed a inst) ]
        in
        List.iter (fun (_, run) -> Format.printf "%a@." Omflp_core.Run.pp run) runs)
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Load a saved instance and run algorithm(s) on it.")
    Term.(const action $ file_arg $ algo_arg $ seed_arg $ metrics_arg $ trace_arg)

(* omflp stats *)
let stats_cmd =
  let file_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "file" ] ~doc:"Instance file; omit to generate one instead.")
  in
  let action file family seed n_sites n_requests n_commodities cost_kind =
    let inst =
      match file with
      | Some f -> Serial.load_file f
      | None ->
          make_instance ~family ~seed ~n_sites ~n_requests ~n_commodities
            ~cost_kind
    in
    Format.printf "%a@.%a@." Instance.pp inst Instance_stats.pp
      (Instance_stats.compute inst);
    let heavy = Omflp_core.Heavy.detect inst.Instance.cost in
    if Omflp_commodity.Cset.is_empty heavy then
      Format.printf "no heavy commodities detected@."
    else
      Format.printf "heavy commodities: %a@." Omflp_commodity.Cset.pp heavy
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Describe an instance's demand structure.")
    Term.(
      const action $ file_arg $ family_arg $ seed_arg $ sites_arg
      $ requests_arg $ commodities_arg $ cost_arg)

(* omflp exp *)
let exp_cmd =
  let which_arg =
    Arg.(
      value
      & opt string "all"
      & info [ "id"; "which" ]
          ~doc:"Experiment id: e1 | e2 | e3 | e4 | e5 | e6 | e8 | e9 | e10 | e11 | all.")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sizes and repetitions.")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv-dir" ]
          ~doc:"Also write each table as CSV into this directory.")
  in
  let action which quick csv_dir jobs =
    Cli_flags.apply_jobs jobs;
    let sections = Omflp_experiments.Suite.run ~quick ~which () in
    List.iter Omflp_experiments.Exp_common.print_section sections;
    match csv_dir with
    | None -> ()
    | Some dir ->
        List.iter
          (fun section ->
            let path = Omflp_experiments.Export.write_csv ~dir section in
            Printf.printf "wrote %s\n" path)
          sections
  in
  Cmd.v
    (Cmd.info "exp" ~doc:"Regenerate the paper's experiment tables/figures.")
    Term.(const action $ which_arg $ quick_arg $ csv_arg $ jobs_arg)

(* omflp check — differential oracle fuzzing (lib/check) *)
let check_cmd =
  let budget_arg =
    Arg.(
      value & opt int 200
      & info [ "budget" ] ~docv:"N"
          ~doc:"Number of fresh random scenarios to generate and check.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt string Omflp_check.Corpus.default_dir
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Replay corpus directory: failing instances found earlier are \
             re-checked first, and new (shrunk) failures are saved here.")
  in
  let no_replay_arg =
    Arg.(
      value & flag
      & info [ "no-replay" ] ~doc:"Skip the initial corpus replay pass.")
  in
  let no_shrink_arg =
    Arg.(
      value & flag
      & info [ "no-shrink" ]
          ~doc:"Save failing instances as generated, without minimization.")
  in
  let det_arg =
    Arg.(
      value & opt int 4
      & info [ "determinism-sample" ] ~docv:"K"
          ~doc:
            "Re-run the first $(docv) scenarios under a pool with a \
             different job count and require byte-identical run digests; 0 \
             disables the cross-check.")
  in
  let arrival_arg =
    Arg.(
      value & opt string "all"
      & info [ "arrival" ] ~docv:"MODEL"
          ~doc:
            "Restrict the scenario stream's arrival axis: $(b,adversarial) \
             (in-order/reversed), $(b,random-order), $(b,iid), or \
             $(b,all) (default) to mix the three models.")
  in
  let pfamily_arg =
    Arg.(
      value & opt string "all"
      & info [ "problem-family" ] ~docv:"FAMILY"
          ~doc:
            "Force every fresh scenario into one problem family: \
             $(b,omflp), $(b,nonmetric-fl), $(b,leasing); $(b,all) \
             (default) keeps the unforced plain-OMFLP stream. The oracle \
             checks each instance with the registered algorithms of its \
             family.")
  in
  let action budget seed corpus no_replay no_shrink det_sample arrival pfamily
      jobs metrics trace =
    Cli_flags.apply_jobs jobs;
    Cli_flags.or_die (Cli_flags.validate_nonneg ~flag:"--budget" budget);
    let family = problem_family_of_flag ~flag:"--problem-family" pfamily in
    let arrival =
      match arrival with
      | "all" -> None
      | s -> (
          match Omflp_check.Scenario.forced_of_string s with
          | Some _ as f -> f
          | None ->
              Cli_flags.or_die
                (Error
                   (Printf.sprintf
                      "--arrival: expected adversarial|random-order|iid|all, \
                       got %S"
                      s));
              None)
    in
    let report =
      with_obs ~metrics ~trace (fun () ->
          Omflp_check.Check_engine.run ~corpus_dir:(Some corpus)
            ~replay:(not no_replay) ~shrink:(not no_shrink)
            ~determinism_sample:det_sample ?arrival ?family ~budget ~seed ())
    in
    Printf.printf
      "checked %d scenario(s), replayed %d corpus case(s), determinism x%d: \
       %d violation(s)\n"
      report.scenarios report.replays report.determinism_checked
      (List.length report.findings);
    if report.findings <> [] then begin
      let table =
        Texttable.create
          [ "check"; "algorithm"; "sites"; "reqs"; "comm"; "shrink"; "replay" ]
      in
      List.iter
        (fun (f : Omflp_check.Check_engine.finding) ->
          let dims g = Option.fold ~none:"-" ~some:(fun i -> string_of_int (g i))
              f.instance
          in
          Texttable.add_row table
            [
              f.violation.check;
              f.violation.algo;
              dims Instance.n_sites;
              dims Instance.n_requests;
              dims Instance.n_commodities;
              Texttable.cell_i f.shrink_steps;
              Option.value f.replay_path ~default:"-";
            ])
        report.findings;
      Texttable.print table;
      print_newline ();
      List.iter
        (fun (f : Omflp_check.Check_engine.finding) ->
          Printf.printf "%s [%s] %s\n  scenario: %s\n" f.violation.check
            f.violation.algo f.violation.detail f.scenario;
          Option.iter (Printf.printf "  replay: omflp replay %s\n")
            f.replay_path)
        report.findings;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Fuzz every registered algorithm against the offline/dual oracles \
          (randomized conformance checking with shrinking and replay).")
    Term.(
      const action $ budget_arg $ seed_arg $ corpus_arg $ no_replay_arg
      $ no_shrink_arg $ det_arg $ arrival_arg $ pfamily_arg $ jobs_arg
      $ metrics_arg $ trace_arg)

(* omflp bench — the lib/benchkit harness (tables + E7 + regression gate) *)
let bench_cmd =
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Smaller experiment sizes and shorter bechamel quotas.")
  in
  let tables_only_arg =
    Arg.(
      value & flag
      & info [ "tables-only" ]
          ~doc:"Only regenerate the experiment tables (E1-E6, E8-E11).")
  in
  let bench_only_arg =
    Arg.(
      value & flag
      & info [ "bench-only" ]
          ~doc:"Only run the microbenchmarks and work counters (E7).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write machine-readable results (schema omflp.bench.v1: \
             ns/run rows + E7b work counters) to $(docv).")
  in
  let baseline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Diff ns/run rows against this omflp.bench.v1 file (e.g. the \
             committed BENCH_BASELINE.json) and exit 1 if any shared row \
             regressed past --max-regression.")
  in
  let max_regression_arg =
    Arg.(
      value
      & opt float (100.0 *. Omflp_benchkit.Benchkit.default_max_regression)
      & info [ "max-regression" ] ~docv:"PCT"
          ~doc:"Allowed slowdown per benchmark row, in percent.")
  in
  let pfamily_arg =
    Arg.(
      value & opt string "all"
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:
            "Restrict the bechamel rows to one problem family: $(b,omflp) \
             runs the classic suite, $(b,nonmetric-fl) or $(b,leasing) \
             only that family's E12 rows, $(b,all) (default) everything.")
  in
  let action quick tables_only bench_only jobs json baseline max_regression
      pfamily =
    Cli_flags.or_die (Cli_flags.validate_jobs jobs);
    if tables_only && bench_only then
      Cli_flags.die (Cli_flags.conflict_error "--tables-only" "--bench-only");
    if max_regression < 0.0 then
      Cli_flags.die "omflp: --max-regression must be >= 0";
    let family = problem_family_of_flag ~flag:"--family" pfamily in
    exit
      (Omflp_benchkit.Benchkit.run
         {
           quick;
           tables_only;
           bench_only;
           jobs;
           json_path = json;
           baseline_path = baseline;
           max_regression = max_regression /. 100.0;
           family;
         })
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the benchmark harness: experiment tables, E7 microbenchmarks, \
          work counters, and (with --baseline) the perf regression gate.")
    Term.(
      const action $ quick_arg $ tables_only_arg $ bench_only_arg $ jobs_arg
      $ json_arg $ baseline_arg $ max_regression_arg $ pfamily_arg)

(* omflp selfcheck *)
let selfcheck_cmd =
  let action seed =
    let inst =
      make_instance ~family:"clustered" ~seed ~n_sites:8 ~n_requests:20
        ~n_commodities:5 ~cost_kind:"x=1"
    in
    List.iter
      (fun (name, run) ->
        match Omflp_core.Simulator.validate inst run with
        | Ok () -> Printf.printf "%-10s valid (cost %.4g)\n" name
                     (Omflp_core.Run.total_cost run)
        | Error e -> Printf.printf "%-10s INVALID: %s\n" name e)
      (Omflp_core.Simulator.run_all ~seed inst);
    (* PD-specific theory checks. *)
    let t = Omflp_core.Pd_omflp.create (Instance.env inst) in
    Array.iter
      (fun r -> ignore (Omflp_core.Pd_omflp.step t r))
      inst.Instance.requests;
    (match Omflp_core.Dual_checker.corollary8 t with
    | Ok () -> print_endline "Corollary 8 (cost <= 3*duals): ok"
    | Error e -> print_endline ("Corollary 8 FAILED: " ^ e));
    match
      Omflp_core.Dual_checker.scaled_dual_feasible inst.Instance.metric
        inst.Instance.cost
        (Omflp_core.Pd_omflp.dual_records t)
    with
    | Ok () -> print_endline "Corollary 17 (scaled duals feasible): ok"
    | Error (m, sigma) ->
        Format.printf "Corollary 17 FAILED at site %d, sigma %a@." m
          Omflp_commodity.Cset.pp sigma
  in
  Cmd.v
    (Cmd.info "selfcheck" ~doc:"Run validity and theory checks on a sample instance.")
    Term.(const action $ seed_arg)

(* omflp serve *)
let serve_cmd =
  let module Serve = Omflp_serve in
  let algo_arg =
    Arg.(
      value
      & opt string "PD-OMFLP"
      & info [ "algo" ] ~docv:"NAME" ~doc:"Algorithm to serve with.")
  in
  let env_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "env" ] ~docv:"FILE"
          ~doc:
            "Instance file ('omflp gen') supplying the metric space and \
             cost function. Its request list is ignored: requests arrive \
             as JSON lines on stdin.")
  in
  let checkpoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"DIR"
          ~doc:
            "Durable session directory: write-ahead request log, decision \
             log, and periodic state snapshots. A killed session restarted \
             with --resume continues its exact decision stream.")
  in
  let snapshot_every_arg =
    Arg.(
      value
      & opt int 16
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "Checkpoint the algorithm state every $(docv) requests: append \
             what changed since the previous checkpoint, or rewrite the \
             snapshot whole once those deltas outgrow it.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume the session in --checkpoint: restore the snapshot \
             (dropping a last segment the crash tore), replay the uncovered \
             WAL suffix, re-emit decisions lost in the crash window, and \
             skip that many already-served leading input lines.")
  in
  let listen_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Serve many concurrent sessions over a socket instead of one \
             over stdin: a path is a Unix-domain socket, HOST:PORT is TCP. \
             Each connection opens with a session handshake line; with \
             --checkpoint DIR every session checkpoints under DIR/ID. \
             Stdin mode is exactly this with one anonymous session.")
  in
  let max_sessions_arg =
    Arg.(
      value
      & opt int 1024
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:
            "Refuse handshakes beyond $(docv) concurrent sessions \
             (--listen only). Connections on descriptors at or above \
             1024 are refused too, and a checkpointed session holds \
             three (socket, WAL, decision log), so for checkpointed \
             sessions that cap binds first: about 340 are admitted, \
             whatever $(docv) says.")
  in
  let workers_arg =
    Arg.(
      value
      & opt int 4
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Event loops for --listen mode, one domain each; the calling \
             domain runs one of them. A connection stays on the loop \
             that accepted it.")
  in
  let action algo env checkpoint snapshot_every resume listen max_sessions
      workers seed metrics trace =
    if snapshot_every <= 0 then
      Cli_flags.die "omflp: --snapshot-every must be >= 1";
    if resume && checkpoint = None then
      Cli_flags.die "omflp: --resume requires --checkpoint";
    if resume && listen <> None then
      Cli_flags.die
        "omflp: --resume is per-session in --listen mode (use the \
         handshake's \"resume\":true instead)";
    let inst = Serial.load_file env in
    let penv = Instance.env inst in
    let n_sites = Instance.n_sites inst in
    let n_commodities = Instance.n_commodities inst in
    let algo_m =
      match Omflp_core.Registry.find algo with
      | Ok a -> a
      | Error e ->
          Cli_flags.die
            ("omflp: " ^ Omflp_core.Registry.unknown_algo_message e)
    in
    let (module A : Omflp_core.Algo_intf.ALGO) = algo_m in
    let instance_md5 = Digest.to_hex (Digest.file env) in
    match listen with
    | Some addr -> (
        match
          with_obs ~metrics ~trace (fun () ->
              Serve.Server.run
                {
                  Serve.Server.listen = addr;
                  algo;
                  env = inst;
                  instance_md5;
                  checkpoint_root = checkpoint;
                  snapshot_every;
                  seed;
                  max_sessions;
                  workers;
                })
        with
        | () -> ()
        | exception (Failure msg | Invalid_argument msg) ->
            Cli_flags.die ("omflp serve: " ^ msg))
    | None -> (
    match
      with_obs ~metrics ~trace (fun () ->
        let session, reemit =
          Serve.Session.start ~algo:algo_m ~seed ~instance_md5
            ~checkpoint:
              (Option.map (fun dir -> (dir, snapshot_every)) checkpoint)
            ~resume penv
        in
        (* A resumed session has served this many leading input lines. *)
        let skip = Serve.Session.count session in
        (* Decisions that were served before the crash but not yet durable:
           the client never saw their records survive, so re-emit them
           (canonical form — replay has no meaningful latency). *)
        List.iter
          (fun d -> print_endline (Serve.Wire.decision_to_json d))
          reemit;
        if reemit <> [] then flush stdout;
        let line_no = ref 0 in
        let skipped = ref 0 in
        (try
           while true do
             let line = input_line stdin in
             incr line_no;
             if String.trim line <> "" then begin
               if !skipped < skip then incr skipped
               else
                 match
                   Serve.Wire.parse_request ~n_sites ~n_commodities line
                 with
                 | Error e ->
                     Printf.eprintf "omflp serve: stdin line %d: %s\n%!"
                       !line_no e
                 | Ok r ->
                     (* One request per batch: each answer is out before
                        the next line is read. *)
                     let t0 = Omflp_obs.Metrics.now () in
                     let d = (Serve.Session.handle_batch session [| r |]).(0) in
                     let latency_s = Omflp_obs.Metrics.now () -. t0 in
                     print_endline (Serve.Wire.decision_to_json ~latency_s d);
                     flush stdout
             end
           done
         with End_of_file -> ());
        Serve.Session.close session;
        let construction, assignment, total =
          Serve.Session.running_costs session
        in
        Printf.eprintf
          "omflp serve: %s served %d requests; cost %.17g (construction \
           %.17g, assignment %.17g)\n\
           %!"
          A.name
          (Serve.Session.count session)
          total construction assignment)
    with
    | () -> ()
    | exception Failure msg -> Cli_flags.die ("omflp serve: " ^ msg))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve requests interactively: JSON lines in, decision records \
          out, with optional crash-robust checkpoint/resume; --listen \
          multiplexes many concurrent sessions over a socket.")
    Term.(
      const action $ algo_arg $ env_arg $ checkpoint_arg $ snapshot_every_arg
      $ resume_arg $ listen_arg $ max_sessions_arg $ workers_arg
      $ seed_arg $ metrics_arg $ trace_arg)

(* omflp loadgen *)
let loadgen_cmd =
  let connect_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Server address ('omflp serve --listen' syntax): a Unix-domain \
             socket path or HOST:PORT.")
  in
  let env_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "env" ] ~docv:"FILE"
          ~doc:
            "Instance file ('omflp gen'); session $(i,i) replays its \
             request sequence rotated by $(i,i).")
  in
  let sessions_arg =
    Arg.(
      value & opt int 8
      & info [ "sessions" ] ~docv:"N" ~doc:"Concurrent client sessions.")
  in
  let requests_arg =
    Arg.(
      value & opt int 100
      & info [ "requests" ] ~docv:"N"
          ~doc:"Requests per session (wraps around the instance).")
  in
  let algo_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "algo" ] ~docv:"NAME"
          ~doc:"Algorithm named in the handshake; default: the server's.")
  in
  let window_arg =
    Arg.(
      value & opt int 8
      & info [ "window" ] ~docv:"N"
          ~doc:"Max in-flight requests per connection.")
  in
  let prefix_arg =
    Arg.(
      value & opt string "lg"
      & info [ "session-prefix" ] ~docv:"S" ~doc:"Session id prefix.")
  in
  let no_checkpoint_arg =
    Arg.(
      value & flag
      & info [ "no-checkpoint" ]
          ~doc:
            "Opt sessions out of checkpointing even when the server has a \
             checkpoint root.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ] ~doc:"Resume every session from its checkpoint.")
  in
  let dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-dir" ] ~docv:"DIR"
          ~doc:
            "Also write each session's exact request stream to \
             DIR/ID.jsonl, for byte-identity replays through stdin mode.")
  in
  let action connect env sessions requests algo window prefix no_checkpoint
      resume dump_dir seed =
    let inst = Serial.load_file env in
    match
      Omflp_loadgen.Loadgen.run
        {
          Omflp_loadgen.Loadgen.connect;
          env = inst;
          sessions;
          requests_per_session = requests;
          algo;
          seed = Some seed;
          snapshot_every = None;
          checkpoint = (if no_checkpoint then Some false else None);
          resume;
          window;
          session_prefix = prefix;
          dump_dir;
        }
    with
    | Ok report -> Omflp_loadgen.Loadgen.print_report stdout report
    | Error msg -> Cli_flags.die ("omflp loadgen: " ^ msg)
    | exception (Failure msg | Invalid_argument msg) ->
        Cli_flags.die ("omflp loadgen: " ^ msg)
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive an 'omflp serve --listen' server with N concurrent \
          sessions and report throughput and latency percentiles.")
    Term.(
      const action $ connect_arg $ env_arg $ sessions_arg $ requests_arg
      $ algo_arg $ window_arg $ prefix_arg $ no_checkpoint_arg $ resume_arg
      $ dump_arg $ seed_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "omflp" ~version:"1.0.0"
             ~doc:"Online Multi-Commodity Facility Location (SPAA 2020) toolkit")
          [
            run_cmd;
            solve_cmd;
            gen_cmd;
            replay_cmd;
            stats_cmd;
            exp_cmd;
            bench_cmd;
            check_cmd;
            selfcheck_cmd;
            serve_cmd;
            loadgen_cmd;
          ]))
