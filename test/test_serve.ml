(* Serving-layer tests: the byte-identical kill/resume contract at every
   interruption point for every registered algorithm (pinned against the
   golden run digests), the JSONL wire format, and the checkpoint
   directory's durability invariants (WAL ahead of decisions, torn-tail
   truncation, snapshot integrity, named corruption errors). *)

open Omflp_instance
open Omflp_core
open Omflp_serve

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let master_seed = 0xD16E57

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let scenario index =
  let sc = Omflp_check.Scenario.golden ~master_seed ~index in
  (sc.Omflp_check.Scenario.instance, sc.Omflp_check.Scenario.algo_seed)

(* The fixture/golden scenario each family is pinned on — must mirror
   tools/gen_snapshot_fixtures.ml. *)
let family_index = function
  | Problem_env.Family.Omflp -> 0
  | Problem_env.Family.Nonmetric_fl -> 30
  | Problem_env.Family.Multi_facility_leasing -> 33

let load_golden () =
  let golden = "golden/run_digests.txt" in
  let path =
    if Sys.file_exists golden then golden else Filename.concat "test" golden
  in
  let tbl = Hashtbl.create 256 in
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.iter (fun line ->
         match String.split_on_char ' ' line |> List.filter (( <> ) "") with
         | [ idx; name; md5 ] ->
             Hashtbl.replace tbl (int_of_string idx, name) md5
         | _ -> Alcotest.failf "malformed golden line %S" line);
  tbl

(* ---------- kill at every step ---------- *)

(* For every algorithm, every scenario family, and every cut point k:
   serve k requests, snapshot, restore from the blob, serve the rest —
   the completed run must be byte-identical (run_digest: decisions,
   facility ids, %.17g costs) to the uninterrupted run, which itself is
   pinned to test/golden/run_digests.txt. *)
let test_kill_at_every_step () =
  let golden = load_golden () in
  (* The covered scenarios must span the arrival axis: index 1 is a
     random-order stream and 0/2 are i.i.d. at the pinned master seed
     (index 5 adds a multi-site random-order one). Checkpoint/resume has
     to be order-oblivious, so every model rides the same contract. *)
  (* Indices 30/33 are the golden non-metric and leasing scenarios, so
     NONMETRIC-BF and LEASE-PD ride the same contract. *)
  let indices = [ 0; 1; 2; 5; 30; 33 ] in
  let tags =
    List.map
      (fun index ->
        let inst, _ = scenario index in
        Arrival.model_tag inst.Instance.arrival)
      indices
  in
  check_bool "covers a random-order stream" true (List.mem "ro" tags);
  check_bool "covers an i.i.d. stream" true (List.mem "iid" tags);
  List.iter
    (fun index ->
      let inst, seed = scenario index in
      let n = Instance.n_requests inst in
      List.iter
        (fun (name, (module A : Algo_intf.ALGO)) ->
          let straight =
            let t = A.create ~seed (Instance.env inst) in
            Array.iter (fun r -> ignore (A.step t r)) inst.Instance.requests;
            Omflp_check.Oracle.run_digest (A.run_so_far t)
          in
          (match Hashtbl.find_opt golden (index, name) with
          | Some md5 ->
              check_string
                (Printf.sprintf "scenario %02d %s matches golden" index name)
                md5
                (Digest.to_hex (Digest.string straight))
          | None -> Alcotest.failf "no golden digest for %d %s" index name);
          for k = 0 to n do
            let t = A.create ~seed (Instance.env inst) in
            for i = 0 to k - 1 do
              ignore (A.step t inst.Instance.requests.(i))
            done;
            let blob = A.snapshot t in
            let t' = A.restore (Instance.env inst) blob in
            for i = k to n - 1 do
              ignore (A.step t' inst.Instance.requests.(i))
            done;
            let resumed = Omflp_check.Oracle.run_digest (A.run_so_far t') in
            if resumed <> straight then
              Alcotest.failf
                "%s, scenario %d: kill/restore after request %d diverges \
                 from the uninterrupted run"
                name index k
          done)
        (Registry.of_family (Instance.family inst)))
    indices

(* ---------- committed snapshot fixtures (codec cross-version) ---------- *)

(* The v2 wire format is pinned by committed fixture blobs: for every
   registered algorithm, a snapshot taken after the first 5 requests of
   scenario 0 must equal the committed bytes exactly, and the committed
   bytes must restore and continue into the golden uninterrupted run. A
   failure here means the codec layout changed under existing snapshots
   — bump the algorithm's snapshot tag and regenerate deliberately with
   [dune exec tools/gen_snapshot_fixtures.exe]. *)
let fixture_path ?(dir = "snapshot_v2") name =
  let rel =
    Filename.concat "golden"
      (Filename.concat dir (String.lowercase_ascii name ^ ".snap"))
  in
  if Sys.file_exists rel then rel else Filename.concat "test" rel

let test_snapshot_fixture_cross_version () =
  let golden = load_golden () in
  List.iter
    (fun (name, (module A : Algo_intf.ALGO)) ->
      let index = family_index A.family in
      let inst, seed = scenario index in
      let n = Instance.n_requests inst in
      let cut = min 5 n in
      let path = fixture_path name in
      if not (Sys.file_exists path) then
        Alcotest.failf
          "no committed fixture for %s — run tools/gen_snapshot_fixtures.exe"
          name;
      let committed = In_channel.with_open_bin path In_channel.input_all in
      let t = A.create ~seed (Instance.env inst) in
      for i = 0 to cut - 1 do
        ignore (A.step t inst.Instance.requests.(i))
      done;
      check_bool
        (Printf.sprintf "%s snapshot bytes match the committed fixture" name)
        true
        (A.snapshot t = committed);
      let t' = A.restore (Instance.env inst) committed in
      for i = cut to n - 1 do
        ignore (A.step t' inst.Instance.requests.(i))
      done;
      let digest =
        Digest.to_hex
          (Digest.string (Omflp_check.Oracle.run_digest (A.run_so_far t')))
      in
      match Hashtbl.find_opt golden (index, name) with
      | Some md5 ->
          check_string
            (Printf.sprintf "%s committed fixture continues into golden run"
               name)
            md5 digest
      | None -> Alcotest.failf "no golden digest for %d %s" index name)
    (Registry.extended ())

(* A blob must only restore into the algorithm that wrote it. *)
let test_snapshot_rejects_foreign_blob () =
  let inst, seed = scenario 0 in
  let module P = Pd_omflp in
  let module G = Greedy_baseline in
  let t = G.create ~seed (Instance.env inst) in
  ignore (G.step t inst.Instance.requests.(0));
  let blob = G.snapshot t in
  check_bool "foreign blob raises Failure" true
    (match P.restore (Instance.env inst) blob with
    | _ -> false
    | exception Failure _ -> true)

(* PD-OMFLP blobs from before the bid caches became its only mode carry
   mode byte [false] and no caches, so they cannot continue
   byte-identically: restore must refuse them by name, also when nested
   inside a HEAVY-AWARE blob. The committed legacy fixtures are those
   blobs (same scenario and cut as the v2 fixtures). *)
let test_legacy_recomputing_blobs_refused () =
  let inst, _ = scenario 0 in
  let env = Instance.env inst in
  List.iter
    (fun (name, restore) ->
      let blob =
        In_channel.with_open_bin
          (fixture_path ~dir:"snapshot_legacy" name)
          In_channel.input_all
      in
      match restore env blob with
      | () -> Alcotest.failf "%s: legacy recomputing blob restored" name
      | exception Failure msg ->
          check_bool
            (Printf.sprintf "%s refusal %S names the retired mode" name msg)
            true
            (contains ~sub:"retired recomputing mode" msg))
    [
      (Pd_omflp.name, fun env b -> ignore (Pd_omflp.restore env b));
      (Heavy_aware.name, fun env b -> ignore (Heavy_aware.restore env b));
    ]

(* ---------- wire format ---------- *)

let test_wire_parse_request () =
  let ok line =
    match Wire.parse_request ~n_sites:4 ~n_commodities:3 line with
    | Ok r -> r
    | Error e -> Alcotest.failf "unexpected parse error on %S: %s" line e
  in
  let err line =
    match Wire.parse_request ~n_sites:4 ~n_commodities:3 line with
    | Ok _ -> Alcotest.failf "expected a parse error on %S" line
    | Error e -> e
  in
  let r = ok {|{"site":2,"demand":[0,2]}|} in
  check_int "site" 2 r.Request.site;
  Alcotest.(check (list int))
    "demand" [ 0; 2 ]
    (Omflp_commodity.Cset.elements r.Request.demand);
  check_bool "bad json" true (err "{" <> "");
  check_bool "missing site" true (err {|{"demand":[0]}|} <> "");
  check_bool "site range" true (err {|{"site":4,"demand":[0]}|} <> "");
  check_bool "empty demand" true (err {|{"site":0,"demand":[]}|} <> "");
  check_bool "commodity range" true (err {|{"site":0,"demand":[3]}|} <> "")

let test_wire_wal_round_trip () =
  let r =
    Request.make ~site:3
      ~demand:(Omflp_commodity.Cset.of_list ~n_commodities:5 [ 1; 4 ])
  in
  let line = Wire.request_to_json ~index:7 r in
  check_string "canonical wal line" {|{"index":7,"site":3,"demand":[1,4]}|}
    line;
  match Wire.parse_wal_line ~n_sites:4 ~n_commodities:5 line with
  | Error e -> Alcotest.fail e
  | Ok (index, r') ->
      check_int "index" 7 index;
      check_int "site" 3 r'.Request.site;
      check_bool "demand" true
        (Omflp_commodity.Cset.equal r.Request.demand r'.Request.demand)

let test_wire_decision_latency_variants () =
  let inst, seed = scenario 0 in
  let session =
    Session.create
      ~algo:(module Pd_omflp : Algo_intf.ALGO)
      ~seed (Instance.env inst)
  in
  let d = Session.handle session inst.Instance.requests.(0) in
  let canonical = Wire.decision_to_json d in
  let with_latency = Wire.decision_to_json ~latency_s:0.25 d in
  check_bool "canonical has no latency field" true
    (not (contains ~sub:"latency_s" canonical));
  check_string "latency variant extends the canonical record"
    (String.sub canonical 0 (String.length canonical - 1)
    ^ {|,"latency_s":0.250000}|})
    with_latency

let test_wire_decision_buffer_allocation_bounded () =
  (* [decision_to_buffer] writes straight into a reused buffer; the
     former path built a fresh [%.17g] string per float plus a fresh
     Buffer and contents string per decision. Float formatting itself
     allocates a few short strings per [%.17g] (about 260 words for a
     whole decision on this record shape), so the budget is a small
     constant — growth past it means per-decision garbage crept back
     in. *)
  let inst, seed = scenario 0 in
  let session =
    Session.create
      ~algo:(module Pd_omflp : Algo_intf.ALGO)
      ~seed (Instance.env inst)
  in
  let d = Session.handle session inst.Instance.requests.(0) in
  let b = Buffer.create 256 in
  let serialize () =
    Buffer.clear b;
    Wire.decision_to_buffer ~latency_s:1.234e-4 b d
  in
  for _ = 1 to 64 do
    serialize ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    serialize ()
  done;
  let per_call = (Gc.minor_words () -. w0) /. 1000.0 in
  check_bool
    (Printf.sprintf "%.1f minor words per serialized decision (budget 400)"
       per_call)
    true (per_call < 400.0)

(* ---------- checkpoint durability ---------- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "omflp-serve" ".ckpt" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

let read_lines path =
  if not (Sys.file_exists path) then []
  else In_channel.with_open_text path In_channel.input_lines

let md5 = "0123456789abcdef0123456789abcdef"

let algo_pd = (module Pd_omflp : Algo_intf.ALGO)

let fresh_checkpoint ~dir ~snapshot_every =
  Checkpoint.create ~dir ~algo:Pd_omflp.name ~seed:(Some 0)
    ~instance_md5:md5 ~snapshot_every

(* Serve [k] requests into a fresh checkpoint and abandon the session
   without closing — the library-level equivalent of SIGKILL. *)
let crash_after ~dir ~snapshot_every k =
  let inst, _ = scenario 0 in
  let cp = fresh_checkpoint ~dir ~snapshot_every in
  let session =
    Session.create ~algo:algo_pd ~seed:0 ~checkpoint:cp (Instance.env inst)
  in
  for i = 0 to k - 1 do
    ignore (Session.handle session inst.Instance.requests.(i))
  done;
  inst

(* Reference decision log: the full run, straight through. *)
let reference_decisions inst =
  let session =
    Session.create ~algo:algo_pd ~seed:0 (Instance.env inst)
  in
  Array.to_list inst.Instance.requests
  |> List.map (fun r -> Wire.decision_to_json (Session.handle session r))

let resume_and_finish ~dir inst =
  let rz =
    Checkpoint.open_resume ~dir
      ~n_sites:(Instance.n_sites inst)
      ~n_commodities:(Instance.n_commodities inst)
      ~instance_md5:md5
  in
  let session, lost =
    Session.resume ~algo:algo_pd rz (Instance.env inst)
  in
  let rest = ref [] in
  for i = Session.count session to Instance.n_requests inst - 1 do
    rest :=
      Wire.decision_to_json (Session.handle session inst.Instance.requests.(i))
      :: !rest
  done;
  Session.close session;
  (rz, lost, List.rev !rest)

let test_wal_precedes_decisions () =
  with_temp_dir @@ fun dir ->
  let inst = crash_after ~dir ~snapshot_every:2 5 in
  let rz =
    Checkpoint.open_resume ~dir
      ~n_sites:(Instance.n_sites inst)
      ~n_commodities:(Instance.n_commodities inst)
      ~instance_md5:md5
  in
  check_int "wal holds every accepted request" 5 (List.length rz.Checkpoint.wal);
  check_int "every decision is durable" 5 rz.Checkpoint.n_decisions;
  (match rz.Checkpoint.snapshot with
  | Some (count, _) -> check_int "snapshot at the last cadence point" 4 count
  | None -> Alcotest.fail "expected a snapshot");
  Checkpoint.close rz.Checkpoint.cp

let test_kill_resume_decision_log_byte_identical () =
  (* Kill after k requests for every k, resume, finish: the durable
     decision log must equal the straight-through log line for line. *)
  let inst, _ = scenario 0 in
  let reference = reference_decisions inst in
  for k = 0 to Instance.n_requests inst do
    with_temp_dir @@ fun dir ->
    ignore (crash_after ~dir ~snapshot_every:3 k);
    let _, lost, _ = resume_and_finish ~dir inst in
    check_int (Printf.sprintf "kill at %d loses nothing durable" k) 0
      (List.length lost);
    Alcotest.(check (list string))
      (Printf.sprintf "decision log after kill at %d" k)
      reference
      (read_lines (Filename.concat dir "decisions.jsonl"))
  done

let test_handle_batch_matches_handle () =
  (* Batched serving is an amortization, not a semantic change: uneven
     chunk sizes (including an empty chunk and one spanning two snapshot
     cadence points) must produce the same decisions and byte-identical
     WAL and decision logs as per-request [handle]. *)
  let inst, _ = scenario 0 in
  let n = Instance.n_requests inst in
  with_temp_dir @@ fun dir_a ->
  with_temp_dir @@ fun dir_b ->
  let cp_a = fresh_checkpoint ~dir:dir_a ~snapshot_every:3 in
  let sa =
    Session.create ~algo:algo_pd ~seed:0 ~checkpoint:cp_a (Instance.env inst)
  in
  let per_request = ref [] in
  Array.iter
    (fun r ->
      per_request := Wire.decision_to_json (Session.handle sa r) :: !per_request)
    inst.Instance.requests;
  Session.close sa;
  let cp_b = fresh_checkpoint ~dir:dir_b ~snapshot_every:3 in
  let sb =
    Session.create ~algo:algo_pd ~seed:0 ~checkpoint:cp_b (Instance.env inst)
  in
  let batched = ref [] in
  let i = ref 0 in
  List.iter
    (fun sz ->
      let sz = min sz (n - !i) in
      let ds = Session.handle_batch sb (Array.sub inst.Instance.requests !i sz) in
      check_int "batch returns one decision per request" sz (Array.length ds);
      Array.iter
        (fun d -> batched := Wire.decision_to_json d :: !batched)
        ds;
      i := !i + sz)
    [ 1; 4; 0; 7; 2; n ];
  check_int "all requests consumed" n !i;
  Session.close sb;
  Alcotest.(check (list string))
    "decision records identical" (List.rev !per_request) (List.rev !batched);
  List.iter
    (fun f ->
      check_string
        (Printf.sprintf "%s byte-identical between modes" f)
        (In_channel.with_open_bin (Filename.concat dir_a f) In_channel.input_all)
        (In_channel.with_open_bin (Filename.concat dir_b f) In_channel.input_all))
    [ "wal.jsonl"; "decisions.jsonl" ]

let test_torn_tails_and_crash_window () =
  with_temp_dir @@ fun dir ->
  let inst = crash_after ~dir ~snapshot_every:100 6 in
  (* Simulate the crash window: the decision append of request 5 died
     mid-write (partial line, no newline), and a WAL append for request 6
     died the same way. *)
  let chop path =
    let content = In_channel.with_open_bin path In_channel.input_all in
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc
          (String.sub content 0 (String.length content - 7)))
  in
  chop (Filename.concat dir "decisions.jsonl");
  let oc =
    open_out_gen [ Open_wronly; Open_append ] 0o644
      (Filename.concat dir "wal.jsonl")
  in
  output_string oc {|{"index":6,"si|};
  close_out oc;
  let rz, lost, _ = resume_and_finish ~dir inst in
  check_int "torn wal line dropped" 6 (List.length rz.Checkpoint.wal);
  check_int "torn decision line dropped" 5 rz.Checkpoint.n_decisions;
  (match lost with
  | [ d ] -> check_int "the crash-window decision is re-emitted" 5 d.Wire.index
  | l -> Alcotest.failf "expected exactly one lost decision, got %d"
           (List.length l));
  Alcotest.(check (list string))
    "decision log healed to the reference"
    (reference_decisions inst)
    (read_lines (Filename.concat dir "decisions.jsonl"))

let expect_failure ~substring f =
  match f () with
  | _ -> Alcotest.failf "expected Failure mentioning %S" substring
  | exception Failure msg ->
      check_bool
        (Printf.sprintf "error %S mentions %S" msg substring)
        true
        (contains ~sub:substring msg)

let test_corruption_is_named () =
  with_temp_dir @@ fun dir ->
  let inst = crash_after ~dir ~snapshot_every:2 6 in
  let open_rz () =
    Checkpoint.open_resume ~dir
      ~n_sites:(Instance.n_sites inst)
      ~n_commodities:(Instance.n_commodities inst)
      ~instance_md5:md5
  in
  (* Truncated snapshot: the MD5 in the header no longer matches. *)
  let snap = Filename.concat dir "snapshot.bin" in
  let content = In_channel.with_open_bin snap In_channel.input_all in
  Out_channel.with_open_bin snap (fun oc ->
      Out_channel.output_string oc
        (String.sub content 0 (String.length content - 3)));
  expect_failure ~substring:"snapshot integrity check failed" open_rz;
  (* Garbage header. *)
  Out_channel.with_open_bin snap (fun oc ->
      Out_channel.output_string oc "not a snapshot\njunk");
  expect_failure ~substring:"corrupt snapshot header" open_rz;
  (* Snapshot newer than the durable decisions: external truncation of
     the decision log (a real crash cannot produce this ordering). *)
  Out_channel.with_open_bin snap (fun oc ->
      Out_channel.output_string oc content);
  let dec = Filename.concat dir "decisions.jsonl" in
  let lines = read_lines dec in
  Out_channel.with_open_bin dec (fun oc ->
      List.iteri
        (fun i l -> if i < 3 then Out_channel.output_string oc (l ^ "\n"))
        lines);
  expect_failure ~substring:"snapshot covers" open_rz;
  (* Wrong instance hash. *)
  expect_failure ~substring:"instance mismatch" (fun () ->
      Checkpoint.open_resume ~dir
        ~n_sites:(Instance.n_sites inst)
        ~n_commodities:(Instance.n_commodities inst)
        ~instance_md5:(String.make 32 'f'))

(* ---------- manifest validation (regression: int_of_float truncation) ---------- *)

let replace_once ~old ~by s =
  let n = String.length s and m = String.length old in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = old then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.failf "substring %S not found in %S" old s
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)

let rewrite_manifest ~dir ~old ~by =
  let path = Filename.concat dir "MANIFEST.json" in
  let s = In_channel.with_open_text path In_channel.input_all in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (replace_once ~old ~by s))

(* [load_manifest] used to read snapshot_every with a bare
   [int_of_float]: 2.7 silently truncated to 2 (changing the snapshot
   cadence of the resumed session), and 0 surfaced later as a naked
   [Division_by_zero] from the cadence check. Both must instead be named
   [Checkpoint.resume:] manifest errors at load time. *)
let test_manifest_validation () =
  let inst, _ = scenario 0 in
  let open_rz dir () =
    Checkpoint.open_resume ~dir
      ~n_sites:(Instance.n_sites inst)
      ~n_commodities:(Instance.n_commodities inst)
      ~instance_md5:md5
  in
  let with_edit ~old ~by f =
    with_temp_dir @@ fun dir ->
    ignore (crash_after ~dir ~snapshot_every:4 5);
    rewrite_manifest ~dir ~old ~by;
    f dir
  in
  with_edit ~old:{|"snapshot_every":4|} ~by:{|"snapshot_every":2.7|}
    (fun dir ->
      expect_failure ~substring:"must be an integer" (open_rz dir);
      expect_failure ~substring:"Checkpoint.resume:" (open_rz dir));
  with_edit ~old:{|"snapshot_every":4|} ~by:{|"snapshot_every":0|} (fun dir ->
      expect_failure ~substring:"must be >= 1" (open_rz dir));
  with_edit ~old:{|"snapshot_every":4|} ~by:{|"snapshot_every":-3|} (fun dir ->
      expect_failure ~substring:"must be >= 1" (open_rz dir));
  with_edit ~old:{|"snapshot_every":4|} ~by:{|"snapshot_every":"4"|}
    (fun dir -> expect_failure ~substring:"must be an integer" (open_rz dir));
  with_edit ~old:{|"snapshot_every":4|} ~by:{|"snapshot_evry":4|} (fun dir ->
      expect_failure ~substring:"misses" (open_rz dir));
  with_edit ~old:{|"seed":0|} ~by:{|"seed":1.5|} (fun dir ->
      expect_failure ~substring:{|"seed" must be an integer|} (open_rz dir));
  (* An intact manifest still resumes. *)
  with_temp_dir @@ fun dir ->
  ignore (crash_after ~dir ~snapshot_every:4 5);
  let rz = open_rz dir () in
  check_int "valid manifest resumes" 4 (Checkpoint.snapshot_every rz.Checkpoint.cp);
  Checkpoint.close rz.Checkpoint.cp

(* ---------- resume cross-check (regression: unchecked WAL replay) ---------- *)

let copy_file src dst =
  let content = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc content)

(* [Session.resume] used to recompute decisions during WAL replay
   without ever comparing them to the durable decision log — a snapshot
   from a different history replayed cleanly and the session silently
   continued a stream contradicting what the client already saw. Plant a
   foreign-history snapshot and require the named failure. *)
let test_resume_detects_divergent_snapshot () =
  let inst, _ = scenario 0 in
  with_temp_dir @@ fun dir_a ->
  with_temp_dir @@ fun dir_b ->
  (* A: the genuine session, six requests in arrival order. *)
  let cp_a = fresh_checkpoint ~dir:dir_a ~snapshot_every:4 in
  let sa =
    Session.create ~algo:algo_pd ~seed:0 ~checkpoint:cp_a (Instance.env inst)
  in
  for i = 0 to 5 do
    ignore (Session.handle sa inst.Instance.requests.(i))
  done;
  (* B: same shape (snapshot at count 4) but a different history — the
     first request served six times over. *)
  let cp_b = fresh_checkpoint ~dir:dir_b ~snapshot_every:4 in
  let sb =
    Session.create ~algo:algo_pd ~seed:0 ~checkpoint:cp_b (Instance.env inst)
  in
  for _ = 1 to 6 do
    ignore (Session.handle sb inst.Instance.requests.(0))
  done;
  (* Plant B's snapshot into A: internally consistent (its own MD5
     matches), covers the same count, passes every file-level check —
     only the replay cross-check can catch it. *)
  copy_file
    (Filename.concat dir_b "snapshot.bin")
    (Filename.concat dir_a "snapshot.bin");
  expect_failure ~substring:"diverges from the durable decision log"
    (fun () ->
      let rz =
        Checkpoint.open_resume ~dir:dir_a
          ~n_sites:(Instance.n_sites inst)
          ~n_commodities:(Instance.n_commodities inst)
          ~instance_md5:md5
      in
      Session.resume ~algo:algo_pd rz (Instance.env inst))

(* ---------- the socket server ---------- *)

let with_server_root f =
  with_temp_dir @@ fun root ->
  Unix.mkdir root 0o755;
  f root

let server_config ~root ~env ?(max_sessions = 64) ?(queue_depth = 4)
    ?(workers = 2) () =
  {
    Server.listen = Filename.concat root "srv.sock";
    algo = Pd_omflp.name;
    env;
    instance_md5 = md5;
    checkpoint_root = Some (Filename.concat root "cps");
    snapshot_every = 4;
    seed = 0;
    max_sessions;
    queue_depth;
    workers;
  }

(* Tentpole acceptance: 8 concurrent sessions through one server, each
   stream a distinct rotation (wrapping past the instance length, so
   snapshots fire mid-stream), durable logs byte-identical to the same
   streams served by a plain single-session [Session] — which is what
   stdin mode drives. The queue depth of 4 against a window of 5 also
   forces the backpressure path. *)
let test_server_multi_client_byte_identical () =
  let inst, _ = scenario 0 in
  let n = Instance.n_requests inst in
  with_server_root @@ fun root ->
  let cfg = server_config ~root ~env:inst () in
  let server = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let per = (2 * n) + 3 in
  match
    Omflp_loadgen.Loadgen.run
      {
        Omflp_loadgen.Loadgen.connect = cfg.Server.listen;
        env = inst;
        sessions = 8;
        requests_per_session = per;
        algo = None;
        seed = None;
        snapshot_every = None;
        checkpoint = None;
        resume = false;
        window = 5;
        session_prefix = "c";
        dump_dir = None;
      }
  with
  | Error e -> Alcotest.fail e
  | Ok report ->
      check_int "every request answered" (8 * per)
        report.Omflp_loadgen.Loadgen.r_requests;
      for i = 0 to 7 do
        let reference =
          let s =
            Session.create ~algo:algo_pd ~seed:0 (Instance.env inst)
          in
          List.init per (fun j ->
              Wire.decision_to_json
                (Session.handle s inst.Instance.requests.((i + j) mod n)))
        in
        Alcotest.(check (list string))
          (Printf.sprintf "session c%d durable log = single-session run" i)
          reference
          (read_lines
             (Filename.concat root
                (Filename.concat "cps"
                   (Filename.concat (Printf.sprintf "c%d" i)
                      "decisions.jsonl"))))
      done

let hello_line ?algo ?seed ?snapshot_every ?checkpoint ?(resume = false) id =
  Wire.hello_to_json
    {
      Wire.h_session = id;
      h_algo = algo;
      h_seed = seed;
      h_snapshot_every = snapshot_every;
      h_checkpoint = checkpoint;
      h_resume = resume;
    }

(* A raw synchronous client for handshake-level tests. *)
let raw_client sock id =
  let fd = Listener.connect sock in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc (hello_line id);
  output_char oc '\n';
  flush oc;
  let reply =
    match Wire.parse_server_line (input_line ic) with
    | Ok l -> l
    | Error e -> Alcotest.failf "unparseable server line: %s" e
  in
  (fd, reply)

let test_server_admission_control () =
  let inst, _ = scenario 0 in
  with_server_root @@ fun root ->
  let cfg = server_config ~root ~env:inst ~max_sessions:2 ~workers:1 () in
  let server = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let fd1, r1 = raw_client cfg.Server.listen "a" in
  let fd2, r2 = raw_client cfg.Server.listen "b" in
  (match (r1, r2) with
  | Wire.Ack a, Wire.Ack b ->
      check_string "session a acked" "a" a.Wire.a_session;
      check_string "session b acked" "b" b.Wire.a_session
  | _ -> Alcotest.fail "expected two acks");
  check_int "two live sessions" 2 (Server.active_sessions server);
  (* Third session: over capacity. *)
  let fd3, r3 = raw_client cfg.Server.listen "c" in
  (match r3 with
  | Wire.Refused e ->
      check_bool "refusal names max-sessions" true
        (contains ~sub:"max-sessions" e)
  | _ -> Alcotest.fail "expected a capacity refusal");
  (* Duplicate id: refused while the first connection is live. *)
  let fd4, r4 = raw_client cfg.Server.listen "a" in
  (match r4 with
  | Wire.Refused e ->
      check_bool "refusal names the duplicate" true
        (contains ~sub:"already connected" e)
  | _ -> Alcotest.fail "expected a duplicate-session refusal");
  (* Traversal-shaped ids: a session id becomes a checkpoint directory
     name, so ".." and anything with a path separator must be refused at
     the handshake (before any directory is created). *)
  let traversal =
    List.map
      (fun id ->
        let fd, r = raw_client cfg.Server.listen id in
        (match r with
        | Wire.Refused e ->
            check_bool
              (Printf.sprintf "refusal for id %S names validity" id)
              true
              (contains ~sub:"invalid session id" e)
        | _ -> Alcotest.failf "expected id %S to be refused" id);
        fd)
      [ ".."; "."; "x/y"; "" ]
  in
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    ((fd1 :: fd2 :: fd3 :: fd4 :: traversal))

(* ---------- SIGKILL the whole server, resume every session ---------- *)

(* The test runs from _build/default/test (dune runtest) or the
   workspace root (dune exec); anchor on the test executable instead of
   the cwd. *)
let cli_binary =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "omflp_cli.exe"))

let wait_connect sock =
  let rec go tries =
    match Listener.connect sock with
    | fd -> fd
    | exception Failure _ ->
        if tries = 0 then Alcotest.fail "server never came up";
        Unix.sleepf 0.05;
        go (tries - 1)
  in
  go 200

let send_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let recv_line ic =
  match Wire.parse_server_line (input_line ic) with
  | Ok l -> l
  | Error e -> Alcotest.failf "unparseable server line: %s" e

(* Drive the real binary: open a session over the socket, serve half the
   stream, SIGKILL the server process mid-flight, restart it on the same
   checkpoint root, resume the session by handshake, finish the stream —
   the durable decision log must equal the uninterrupted reference. *)
let test_server_sigkill_resume () =
  if not (Sys.file_exists cli_binary) then
    Alcotest.skip ();
  let inst, _ = scenario 0 in
  let n = Instance.n_requests inst in
  with_server_root @@ fun root ->
  let env_file = Filename.concat root "env.inst" in
  Serial.save_file env_file inst;
  let sock = Filename.concat root "srv.sock" in
  let cps = Filename.concat root "cps" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let spawn () =
    Unix.create_process cli_binary
      [|
        cli_binary; "serve"; "--env"; env_file; "--listen"; sock;
        "--checkpoint"; cps; "--snapshot-every"; "3"; "--workers"; "1";
        "--seed"; "0";
      |]
      Unix.stdin Unix.stdout devnull
  in
  let reap pid =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
  in
  let request_lines =
    Array.map
      (fun r ->
        Printf.sprintf {|{"site":%d,"demand":[%s]}|} r.Request.site
          (String.concat ","
             (List.map string_of_int
                (Omflp_commodity.Cset.elements r.Request.demand))))
      inst.Instance.requests
  in
  let pid = ref (spawn ()) in
  Fun.protect
    ~finally:(fun () ->
      reap !pid;
      Unix.close devnull)
    (fun () ->
      (* Phase 1: serve just past a snapshot boundary, then SIGKILL. *)
      let fd = wait_connect sock in
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      send_line oc (hello_line "s");
      (match recv_line ic with
      | Wire.Ack a -> check_int "fresh session" 0 a.Wire.a_served
      | _ -> Alcotest.fail "expected an ack");
      let k = (n / 2) + 1 in
      for i = 0 to k - 1 do
        send_line oc request_lines.(i);
        match recv_line ic with
        | Wire.Decision_line idx -> check_int "in-order decision" i idx
        | _ -> Alcotest.fail "expected a decision"
      done;
      Unix.kill !pid Sys.sigkill;
      ignore (Unix.waitpid [] !pid);
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (* Phase 2: restart on the same root, resume, finish. *)
      pid := spawn ();
      let fd = wait_connect sock in
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      send_line oc (hello_line ~resume:true "s");
      let served =
        match recv_line ic with
        | Wire.Ack a ->
            for _ = 1 to a.Wire.a_reemitted do
              ignore (recv_line ic)
            done;
            a.Wire.a_served
        | Wire.Refused e -> Alcotest.failf "resume refused: %s" e
        | _ -> Alcotest.fail "expected a resume ack"
      in
      check_bool "resume lost nothing durable" true (served = k);
      for i = served to n - 1 do
        send_line oc request_lines.(i);
        match recv_line ic with
        | Wire.Decision_line idx -> check_int "resumed decision" i idx
        | _ -> Alcotest.fail "expected a decision"
      done;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      (match recv_line ic with
      | Wire.Done (served, _) -> check_int "done covers the stream" n served
      | _ -> Alcotest.fail "expected the done record");
      (try Unix.close fd with Unix.Unix_error _ -> ());
      reap !pid;
      (* The durable log equals the uninterrupted single-session run. *)
      let reference =
        let s =
          Session.create ~algo:algo_pd ~seed:0 (Instance.env inst)
        in
        Array.to_list inst.Instance.requests
        |> List.map (fun r -> Wire.decision_to_json (Session.handle s r))
      in
      Alcotest.(check (list string))
        "decision log byte-identical across SIGKILL" reference
        (read_lines
           (Filename.concat cps (Filename.concat "s" "decisions.jsonl"))))

(* The metrics registry is process-global and never frees a name, so a
   long-running server must not register one per session id: serving 50
   sessions with distinct ids leaves the registry the size it had after
   the first. *)
let test_server_metric_names_bounded () =
  let inst, _ = scenario 0 in
  with_server_root @@ fun root ->
  let cfg = server_config ~root ~env:inst ~workers:1 () in
  let server = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let r = inst.Instance.requests.(0) in
  let request =
    Printf.sprintf {|{"site":%d,"demand":[%s]}|} r.Request.site
      (String.concat ","
         (List.map string_of_int
            (Omflp_commodity.Cset.elements r.Request.demand)))
  in
  let serve_one id =
    let fd = Listener.connect cfg.Server.listen in
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    send_line oc (hello_line id);
    (match recv_line ic with
    | Wire.Ack _ -> ()
    | _ -> Alcotest.failf "session %s: expected an ack" id);
    send_line oc request;
    Unix.shutdown fd Unix.SHUTDOWN_SEND;
    (match recv_line ic with
    | Wire.Decision_line 0 -> ()
    | _ -> Alcotest.failf "session %s: expected decision 0" id);
    (match recv_line ic with
    | Wire.Done (1, _) -> ()
    | _ -> Alcotest.failf "session %s: expected a done record" id);
    Unix.close fd
  in
  let n_counters () =
    List.length (Omflp_obs.Metrics.snapshot ()).Omflp_obs.Metrics.counters
  in
  serve_one "m0";
  let after_first = n_counters () in
  for i = 1 to 49 do
    serve_one (Printf.sprintf "m%d" i)
  done;
  check_int "counter names after 50 session ids" after_first (n_counters ())

let test_create_refuses_live_directory () =
  with_temp_dir @@ fun dir ->
  let cp = fresh_checkpoint ~dir ~snapshot_every:4 in
  Checkpoint.close cp;
  expect_failure ~substring:"already holds a session" (fun () ->
      fresh_checkpoint ~dir ~snapshot_every:4)

let test_session_algo_mismatch () =
  with_temp_dir @@ fun dir ->
  let inst, _ = scenario 0 in
  let cp = fresh_checkpoint ~dir ~snapshot_every:4 in
  expect_failure ~substring:"checkpoint belongs to" (fun () ->
      Session.create
        ~algo:(module Greedy_baseline : Algo_intf.ALGO)
        ~seed:0 ~checkpoint:cp (Instance.env inst))

(* An algorithm from the wrong problem family must refuse at session open
   with the named mismatch error — never crash mid-run. *)
let test_session_family_mismatch () =
  let inst, _ = scenario 0 in
  expect_failure
    ~substring:
      "family mismatch: algorithm NONMETRIC-BF serves the nonmetric-fl \
       family but the environment is omflp" (fun () ->
      Session.create
        ~algo:(module Nonmetric_bf : Algo_intf.ALGO)
        ~seed:0 (Instance.env inst));
  let lease_inst, _ = scenario 33 in
  expect_failure ~substring:"family mismatch: algorithm PD-OMFLP" (fun () ->
      Session.create
        ~algo:(module Pd_omflp : Algo_intf.ALGO)
        ~seed:0 (Instance.env lease_inst))

(* A snapshot blob must never restore across families: the environment's
   family gate fires before any state is rebuilt. *)
let test_cross_family_restore_refused () =
  let omflp_inst, _ = scenario 0 in
  let lease_inst, lseed = scenario 33 in
  let t = Lease_pd.create ~seed:lseed (Instance.env lease_inst) in
  ignore (Lease_pd.step t lease_inst.Instance.requests.(0));
  let blob = Lease_pd.snapshot t in
  check_bool "leasing blob refuses an OMFLP environment" true
    (match Lease_pd.restore (Instance.env omflp_inst) blob with
    | _ -> false
    | exception Failure msg -> contains ~sub:"family mismatch" msg)

let () =
  Alcotest.run "serve"
    [
      ( "resume",
        [
          Alcotest.test_case "kill at every step, all algorithms" `Slow
            test_kill_at_every_step;
          Alcotest.test_case "committed v2 fixtures restore and continue"
            `Quick test_snapshot_fixture_cross_version;
          Alcotest.test_case "foreign blob rejected" `Quick
            test_snapshot_rejects_foreign_blob;
          Alcotest.test_case "legacy recomputing PD blobs refused" `Quick
            test_legacy_recomputing_blobs_refused;
          Alcotest.test_case "family mismatch refused at session open" `Quick
            test_session_family_mismatch;
          Alcotest.test_case "cross-family restore refused" `Quick
            test_cross_family_restore_refused;
        ] );
      ( "wire",
        [
          Alcotest.test_case "parse request" `Quick test_wire_parse_request;
          Alcotest.test_case "wal round trip" `Quick test_wire_wal_round_trip;
          Alcotest.test_case "decision latency variants" `Quick
            test_wire_decision_latency_variants;
          Alcotest.test_case "decision buffer allocation bounded" `Quick
            test_wire_decision_buffer_allocation_bounded;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "wal precedes decisions" `Quick
            test_wal_precedes_decisions;
          Alcotest.test_case "kill/resume decision log byte-identical" `Slow
            test_kill_resume_decision_log_byte_identical;
          Alcotest.test_case "handle_batch byte-identical to handle" `Quick
            test_handle_batch_matches_handle;
          Alcotest.test_case "torn tails and crash window" `Quick
            test_torn_tails_and_crash_window;
          Alcotest.test_case "corruption errors are named" `Quick
            test_corruption_is_named;
          Alcotest.test_case "manifest validation" `Quick
            test_manifest_validation;
          Alcotest.test_case "resume detects divergent snapshot" `Quick
            test_resume_detects_divergent_snapshot;
          Alcotest.test_case "create refuses a live directory" `Quick
            test_create_refuses_live_directory;
          Alcotest.test_case "algorithm mismatch" `Quick
            test_session_algo_mismatch;
        ] );
      ( "server",
        [
          Alcotest.test_case "8 clients byte-identical to single-session"
            `Quick test_server_multi_client_byte_identical;
          Alcotest.test_case "admission control" `Quick
            test_server_admission_control;
          Alcotest.test_case "metric names bounded across session ids" `Quick
            test_server_metric_names_bounded;
          Alcotest.test_case "SIGKILL mid-stream, resume by handshake" `Slow
            test_server_sigkill_resume;
        ] );
    ]
