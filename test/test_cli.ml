(* CLI-contract pins: the shared flag validators (lib/cli) must keep
   their exact error strings — they are printed by every subcommand —
   and the bench regression gate (lib/benchkit + Minijson) must read its
   own omflp.bench.v1 output and flag exactly the regressed rows. *)

module Cli_flags = Omflp_cli_support.Cli_flags
module Benchkit = Omflp_benchkit.Benchkit
module Minijson = Omflp_prelude.Minijson

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---------- shared flag validators ---------- *)

let test_jobs_errors () =
  check_bool "1 ok" true (Cli_flags.validate_jobs 1 = Ok ());
  check_bool "8 ok" true (Cli_flags.validate_jobs 8 = Ok ());
  check_string "zero" "omflp: --jobs must be >= 1 (got 0)"
    (match Cli_flags.validate_jobs 0 with Error e -> e | Ok () -> "ok");
  check_string "negative" "omflp: --jobs must be >= 1 (got -3)"
    (match Cli_flags.validate_jobs (-3) with Error e -> e | Ok () -> "ok")

let test_nonneg_errors () =
  check_bool "0 ok" true
    (Cli_flags.validate_nonneg ~flag:"--budget" 0 = Ok ());
  check_string "budget" "omflp: --budget must be >= 0 (got -1)"
    (match Cli_flags.validate_nonneg ~flag:"--budget" (-1) with
    | Error e -> e
    | Ok () -> "ok")

let test_conflict_error () =
  check_string "conflict"
    "omflp: --tables-only and --bench-only conflict (together they would \
     run nothing)"
    (Cli_flags.conflict_error "--tables-only" "--bench-only")

(* ---------- Minijson ---------- *)

let test_minijson_roundtrip () =
  let json =
    Minijson.of_string
      {|{"schema": "omflp.bench.v1", "quick": false, "n": 3,
         "benchmarks": [{"name": "a \"quoted\" one", "ns_per_run": 12.5},
                        {"name": "b", "ns_per_run": null}]}|}
  in
  check_bool "schema" true
    (Option.bind (Minijson.member "schema" json) Minijson.to_string
    = Some "omflp.bench.v1");
  check_bool "n" true
    (Option.bind (Minijson.member "n" json) Minijson.to_float = Some 3.0);
  match Option.bind (Minijson.member "benchmarks" json) Minijson.to_list with
  | Some [ a; b ] ->
      check_bool "escaped name" true
        (Option.bind (Minijson.member "name" a) Minijson.to_string
        = Some {|a "quoted" one|});
      check_bool "ns" true
        (Option.bind (Minijson.member "ns_per_run" a) Minijson.to_float
        = Some 12.5);
      check_bool "null ns" true
        (Option.bind (Minijson.member "ns_per_run" b) Minijson.to_float = None)
  | _ -> Alcotest.fail "expected two benchmark rows"

let test_minijson_rejects_garbage () =
  check_bool "raises" true
    (match Minijson.of_string "{\"a\": }" with
    | exception Minijson.Parse_error _ -> true
    | _ -> false)

(* ---------- bench regression gate ---------- *)

let write_baseline rows =
  let path = Filename.temp_file "omflp_baseline" ".json" in
  Benchkit.write_json ~quick:false ~jobs:1 path ~bench_rows:rows
    ~counter_rows:[] ~alloc_rows:[];
  path

let test_gate_round_trip () =
  (* write_json -> read_baseline is the identity on numeric rows. *)
  let rows = [ ("slow one", Some 2000.0); ("fast one", Some 10.5) ] in
  let path = write_baseline rows in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      match Benchkit.read_baseline path with
      | Error e -> Alcotest.fail e
      | Ok parsed ->
          check_bool "identical rows" true
            (parsed = [ ("slow one", 2000.0); ("fast one", 10.5) ]))

let test_gate_flags_regressions () =
  let path =
    write_baseline
      [ ("stable", Some 1000.0); ("regressed", Some 1000.0);
        ("improved", Some 1000.0); ("gone", Some 1000.0) ]
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let current =
        [
          ("stable", Some 1100.0) (* +10%: inside the 25% budget *);
          ("regressed", Some 1600.0) (* +60%: must be flagged *);
          ("improved", Some 400.0);
          ("brand new", Some 5.0) (* not in baseline: skipped *);
          ("no estimate", None) (* bechamel produced nothing: skipped *);
        ]
      in
      match
        Benchkit.compare_baseline ~baseline_path:path ~max_regression:0.25
          current
      with
      | Error e -> Alcotest.fail e
      | Ok report ->
          check_int "compared" 3 report.Benchkit.compared;
          Alcotest.(check (list string))
            "skipped by name" [ "brand new"; "no estimate" ]
            report.Benchkit.skipped;
          Alcotest.(check (list string))
            "unmatched baseline rows by name" [ "gone" ]
            report.Benchkit.unmatched;
          (match report.Benchkit.regressions with
          | [ r ] ->
              check_string "row" "regressed" r.Benchkit.reg_name;
              check_bool "ratio" true (Float.abs (r.Benchkit.ratio -. 1.6) < 1e-9)
          | rs ->
              Alcotest.failf "expected exactly one regression, got %d"
                (List.length rs)))

let test_gate_vacuous_fails () =
  (* Regression: a comparison where every row skipped (renamed
     benchmarks, foreign baseline) reported "gate: OK". Zero compared
     rows must be a hard Error with the pinned message. *)
  let path =
    write_baseline [ ("other-a", Some 1000.0); ("other-b", Some 500.0) ]
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let current = [ ("mine-1", Some 10.0); ("mine-2", None) ] in
      match
        Benchkit.compare_baseline ~baseline_path:path ~max_regression:0.25
          current
      with
      | Ok _ -> Alcotest.fail "vacuous comparison must not pass"
      | Error e ->
          check_string "pinned message"
            (Benchkit.vacuous_error ~baseline_path:path ~n_rows:2 ~skipped:2)
            e;
      match
        Benchkit.compare_baseline ~baseline_path:path ~max_regression:0.25 []
      with
      | Ok _ -> Alcotest.fail "empty current rows must not pass"
      | Error _ -> ())

let test_gate_partial_skip_passes () =
  (* Skipping is fine as long as at least one row was really compared. *)
  let path = write_baseline [ ("kept", Some 1000.0) ] in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let current =
        [ ("kept", Some 1000.0); ("new-a", Some 1.0); ("new-b", None) ]
      in
      match
        Benchkit.compare_baseline ~baseline_path:path ~max_regression:0.25
          current
      with
      | Error e -> Alcotest.fail e
      | Ok report ->
          check_int "compared" 1 report.Benchkit.compared;
          Alcotest.(check (list string))
            "skipped by name" [ "new-a"; "new-b" ] report.Benchkit.skipped;
          Alcotest.(check (list string))
            "no unmatched baseline rows" [] report.Benchkit.unmatched;
          check_int "no regressions" 0
            (List.length report.Benchkit.regressions))

(* ---------- end-to-end error pins against the real binary ---------- *)

(* The test runs from _build/default/test (dune runtest) or the
   workspace root (dune exec); anchor on the test executable. *)
let cli_binary =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "omflp_cli.exe"))

let run_cli args =
  let err = Filename.temp_file "omflp_cli_err" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s >/dev/null 2>%s </dev/null"
          (Filename.quote cli_binary)
          (String.concat " " (List.map Filename.quote args))
          (Filename.quote err)
      in
      let code = Sys.command cmd in
      (code, In_channel.with_open_text err In_channel.input_all))

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let expect_usage_error ~args ~substring =
  if not (Sys.file_exists cli_binary) then Alcotest.skip ();
  let code, err = run_cli args in
  check_int (String.concat " " args ^ " exits 2") 2 code;
  check_bool
    (Printf.sprintf "stderr carries %S (got %S)" substring err)
    true
    (contains ~sub:substring err)

let with_omflp_instance_file f =
  let sc = Omflp_check.Scenario.golden ~master_seed:0xD16E57 ~index:0 in
  let path = Filename.temp_file "omflp_inst" ".txt" in
  Omflp_instance.Serial.save_file path sc.Omflp_check.Scenario.instance;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_serve_unknown_algo () =
  with_omflp_instance_file @@ fun inst ->
  expect_usage_error
    ~args:[ "serve"; "--algo"; "nope"; "--env"; inst ]
    ~substring:
      "omflp: unknown algorithm \"nope\" (available: PD-OMFLP, RAND-OMFLP, \
       INDEP, ALL-LARGE, GREEDY, HEAVY-AWARE, MEYERSON-OFL, FOTAKIS-OFL, \
       NONMETRIC-BF, LEASE-PD)"

let test_serve_family_mismatch () =
  with_omflp_instance_file @@ fun inst ->
  expect_usage_error
    ~args:[ "serve"; "--algo"; "NONMETRIC-BF"; "--env"; inst ]
    ~substring:
      "omflp serve: family mismatch: algorithm NONMETRIC-BF serves the \
       nonmetric-fl family but the environment is omflp"

let test_check_bad_family () =
  expect_usage_error
    ~args:[ "check"; "--budget"; "0"; "--problem-family"; "bogus" ]
    ~substring:
      "omflp: --problem-family: expected omflp|nonmetric-fl|leasing|all, got \
       \"bogus\""

let test_bench_bad_family () =
  expect_usage_error
    ~args:[ "bench"; "--bench-only"; "--family"; "bogus" ]
    ~substring:
      "omflp: --family: expected omflp|nonmetric-fl|leasing|all, got \"bogus\""

let test_gate_missing_baseline () =
  check_bool "unreadable baseline is an Error" true
    (match
       Benchkit.compare_baseline
         ~baseline_path:"/nonexistent/omflp/baseline.json" ~max_regression:0.25
         []
     with
    | Error _ -> true
    | Ok _ -> false)

let () =
  Alcotest.run "cli"
    [
      ( "flags",
        [
          Alcotest.test_case "--jobs errors" `Quick test_jobs_errors;
          Alcotest.test_case "nonneg errors" `Quick test_nonneg_errors;
          Alcotest.test_case "conflict error" `Quick test_conflict_error;
          Alcotest.test_case "serve --algo unknown is pinned" `Quick
            test_serve_unknown_algo;
          Alcotest.test_case "serve family mismatch is pinned" `Quick
            test_serve_family_mismatch;
          Alcotest.test_case "check --problem-family validation" `Quick
            test_check_bad_family;
          Alcotest.test_case "bench --family validation" `Quick
            test_bench_bad_family;
        ] );
      ( "minijson",
        [
          Alcotest.test_case "roundtrip" `Quick test_minijson_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_minijson_rejects_garbage;
        ] );
      ( "gate",
        [
          Alcotest.test_case "write/read roundtrip" `Quick test_gate_round_trip;
          Alcotest.test_case "flags regressions only" `Quick
            test_gate_flags_regressions;
          Alcotest.test_case "missing baseline" `Quick
            test_gate_missing_baseline;
          Alcotest.test_case "vacuous comparison fails" `Quick
            test_gate_vacuous_fails;
          Alcotest.test_case "partial skip still passes" `Quick
            test_gate_partial_skip_passes;
        ] );
    ]
