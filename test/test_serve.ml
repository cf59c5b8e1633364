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

(* One request per batch: how stdin mode serves. *)
let handle_one s r = (Session.handle_batch s [| r |]).(0)

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

(* The v3 wire format is pinned by committed fixture segments: for every
   registered algorithm, the first snapshot (a base) taken after the
   first 5 requests of its family's scenario must equal the committed
   bytes exactly, and the committed bytes must restore and continue into
   the golden uninterrupted run. A failure here means the codec layout
   changed under existing snapshots — bump the algorithm's snapshot tag,
   move the old fixtures under snapshot_legacy/ and regenerate
   deliberately with [dune exec tools/gen_snapshot_fixtures.exe]. *)
let fixture_path ?(dir = "snapshot_v3") name =
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

(* The v2 fixtures, whole-state blobs of the format v3 retired, are kept
   under snapshot_legacy/v2/: every algorithm refuses its own by name. *)
let test_v2_fixtures_refused () =
  List.iter
    (fun (name, (module A : Algo_intf.ALGO)) ->
      let inst, _ = scenario (family_index A.family) in
      let blob =
        In_channel.with_open_bin
          (fixture_path ~dir:(Filename.concat "snapshot_legacy" "v2") name)
          In_channel.input_all
      in
      match A.restore (Instance.env inst) blob with
      | _ -> Alcotest.failf "%s: a v2 blob restored" name
      | exception Failure msg ->
          check_bool
            (Printf.sprintf "%s refusal %S names the retired v2 format" name
               msg)
            true
            (contains ~sub:"retired v2" msg))
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
   byte-identically. They are v2 blobs (the HEAVY-AWARE one nests a PD
   blob of that mode), so the codec's one header check refuses both,
   naming the retired v2 format. The committed legacy fixtures are
   those blobs (same scenario and cut as the v2 fixtures). *)
(* The algorithms whose state holds a PD-OMFLP run, by restore. *)
let pd_restores =
  [
    (Pd_omflp.name, fun env b -> ignore (Pd_omflp.restore env b));
    (Heavy_aware.name, fun env b -> ignore (Heavy_aware.restore env b));
  ]

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
            (Printf.sprintf "%s refusal %S names the retired v2 format" name
               msg)
            true
            (contains ~sub:"retired v2" msg))
    pd_restores

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
  let d = handle_one session inst.Instance.requests.(0) in
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
  let d = handle_one session inst.Instance.requests.(0) in
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

(* JSON numbers became ints through a bare [int_of_float], so a number
   past the int range came out as 0 or as a wrapped value: a site of
   1e300 was served at site 0, a commodity of 1e19 as commodity 0, a
   hello's seed of 1e300 became seed 0. Every JSON integer is now exact
   (below 2^53 in magnitude) or refused with its field's usual error. *)
let test_wire_integers_exact_or_refused () =
  let request line =
    match Wire.parse_request ~n_sites:4 ~n_commodities:3 line with
    | Ok r ->
        Printf.sprintf "served at site %d, demand [%s]" r.Request.site
          (String.concat ","
             (List.map string_of_int
                (Omflp_commodity.Cset.elements r.Request.demand)))
    | Error e -> e
  in
  List.iter
    (fun (line, expected) -> check_string line expected (request line))
    [
      ({|{"site":1e300,"demand":[0]}|}, {|missing or non-integer "site"|});
      ({|{"site":6e18,"demand":[0]}|}, {|missing or non-integer "site"|});
      ( {|{"site":9007199254740992,"demand":[0]}|},
        {|missing or non-integer "site"|} );
      ( {|{"site":9007199254740991,"demand":[0]}|},
        "site 9007199254740991 out of range [0,4)" );
      ({|{"site":1,"demand":[1e19]}|}, {|missing or non-integer-list "demand"|});
      ({|{"site":1,"demand":[2,-1e300]}|}, {|missing or non-integer-list "demand"|});
    ];
  let hello_seed line =
    match Wire.parse_hello line with
    | Ok h -> Option.fold ~none:"no seed" ~some:string_of_int h.Wire.h_seed
    | Error e -> e
  in
  List.iter
    (fun (line, expected) -> check_string line expected (hello_seed line))
    [
      ({|{"session":"s","seed":1e300}|}, {|field "seed" must be an integer|});
      ( {|{"session":"s","seed":-9007199254740992}|},
        {|field "seed" must be an integer|} );
      ({|{"session":"s","seed":-9007199254740991}|}, "-9007199254740991");
      ( {|{"session":"s","snapshot_every":1e19}|},
        {|field "snapshot_every" must be an integer|} );
    ]

(* Every refusal of [parse_wal_line], pinned: the index is checked
   first, then the request fields of the same parse. *)
let test_wire_wal_line_errors () =
  let table =
    [ {|{"site":1,"demand":[0]}|}, {|missing or non-integer "index"|}
    ; {|{"index":2.5,"site":1,"demand":[0]}|}, {|missing or non-integer "index"|}
    ; {|{"index":"2","site":1,"demand":[0]}|}, {|missing or non-integer "index"|}
    ; {|{"index":2,"site":9,"demand":[0]}|}, "site 9 out of range [0,4)"
    ; {|{"index":2,"site":"1","demand":[0]}|}, {|missing or non-integer "site"|}
    ; {|{"index":2,"site":1,"demand":[]}|}, "empty demand"
    ; {|{"index":2,"site":1,"demand":[5]}|}, "demand commodity out of range [0,5)"
    ; {|{"index":2,"site":1}|}, {|missing or non-integer-list "demand"|}
    ; {|{"index":2,"site":1,"demand":[0]|}, "bad JSON: expected , or } at offset 32"
    ; "", "bad JSON: unexpected end of input at offset 0"
    ] [@ocamlformat "disable"]
  in
  List.iter
    (fun (line, expected) ->
      match Wire.parse_wal_line ~n_sites:4 ~n_commodities:5 line with
      | Ok _ -> Alcotest.failf "%S parsed as a WAL line" line
      | Error e -> check_string line expected e)
    table

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

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Where each segment of [chain] starts, found with the codec's own scan:
   one byte off the end tears the last segment, so the intact prefix the
   scan reports ends where that segment starts. *)
let segment_starts chain =
  let rec go len acc =
    if len = 0 then acc
    else
      let start =
        (Omflp_prelude.Snapshot_codec.scan (String.sub chain 0 (len - 1)))
          .Omflp_prelude.Snapshot_codec.valid
      in
      go start (start :: acc)
  in
  go (String.length chain) []

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
    ignore (handle_one session inst.Instance.requests.(i))
  done;
  inst

(* Reference decision log: the full run, straight through. *)
let reference_decisions inst =
  let session =
    Session.create ~algo:algo_pd ~seed:0 (Instance.env inst)
  in
  Array.to_list inst.Instance.requests
  |> List.map (fun r -> Wire.decision_to_json (handle_one session r))

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
      Wire.decision_to_json (handle_one session inst.Instance.requests.(i))
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
     WAL and decision logs as one-request batches (the stdin shape). *)
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
      per_request := Wire.decision_to_json (handle_one sa r) :: !per_request)
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
  (* Truncated base segment. Bases are renamed into place whole, so no
     crash can cut one short (a cut in a later, appended segment is a
     torn tail that resume drops; see the torn-segment test). *)
  let snap = Filename.concat dir "snapshot.bin" in
  let content = In_channel.with_open_bin snap In_channel.input_all in
  let base_end =
    match segment_starts content with
    | _ :: next :: _ -> next
    | _ -> String.length content
  in
  Out_channel.with_open_bin snap (fun oc ->
      Out_channel.output_string oc (String.sub content 0 (base_end - 3)));
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

(* The kill-at-every-step property through the serving layer: every
   registered algorithm is served by [Session] with a [Checkpoint] at
   cadences 1 and 3, abandoned after every k requests as a SIGKILL would
   leave it, resumed from the snapshot chain on disk, and finished; the
   durable decision log must equal the straight-through run's. At
   cadence 1 PD-OMFLP's chains hold a base and several deltas. *)
let test_chain_resume_all_algorithms () =
  List.iter
    (fun (name, (module A : Algo_intf.ALGO)) ->
      let algo = (module A : Algo_intf.ALGO) in
      let inst, seed = scenario (family_index A.family) in
      let env = Instance.env inst and n = Instance.n_requests inst in
      let reference =
        let s = Session.create ~algo ~seed env in
        Array.to_list inst.Instance.requests
        |> List.map (fun r -> Wire.decision_to_json (handle_one s r))
      in
      let longest = ref 0 in
      List.iter
        (fun every ->
          for k = 0 to n do
            with_temp_dir @@ fun dir ->
            let cp =
              Checkpoint.create ~dir ~algo:A.name ~seed:(Some seed)
                ~instance_md5:md5 ~snapshot_every:every
            in
            let s = Session.create ~algo ~seed ~checkpoint:cp env in
            for i = 0 to k - 1 do
              ignore (handle_one s inst.Instance.requests.(i))
            done;
            Checkpoint.close cp;
            let snap = Filename.concat dir "snapshot.bin" in
            if Sys.file_exists snap then
              longest :=
                max !longest
                  (Omflp_prelude.Snapshot_codec.scan (read_file snap))
                    .Omflp_prelude.Snapshot_codec.segments;
            let rz =
              Checkpoint.open_resume ~dir
                ~n_sites:(Instance.n_sites inst)
                ~n_commodities:(Instance.n_commodities inst)
                ~instance_md5:md5
            in
            let s, lost = Session.resume ~algo rz env in
            if lost <> [] then
              Alcotest.failf "%s, cadence %d, kill at %d: lost decisions" name
                every k;
            for i = Session.count s to n - 1 do
              ignore (handle_one s inst.Instance.requests.(i))
            done;
            Session.close s;
            if read_lines (Filename.concat dir "decisions.jsonl") <> reference
            then
              Alcotest.failf
                "%s, cadence %d: the decision log after a kill at %d differs \
                 from the straight-through run"
                name every k
          done)
        [ 1; 3 ];
      if name = Pd_omflp.name then
        check_bool
          (Printf.sprintf "PD-OMFLP resumed from a chain of %d segments"
             !longest)
          true (!longest >= 3))
    (Registry.extended ())

(* A crash between a delta's append and its flush leaves a proper prefix
   of that segment at the end of snapshot.bin. For a cut at every byte
   offset inside the last segment, resume drops it, restores the chain
   before it and finishes into the straight-through decision log. One
   flipped byte anywhere in the base or in a delta that is not the last
   segment is refused by name instead. *)
let test_torn_and_damaged_segments () =
  let inst, _ = scenario 0 in
  let env = Instance.env inst and n = Instance.n_requests inst in
  let reference = reference_decisions inst in
  with_temp_dir @@ fun src ->
  let snap dir = Filename.concat dir "snapshot.bin" in
  (* Serve at cadence 1 until the chain holds a base and two deltas. *)
  let cp = fresh_checkpoint ~dir:src ~snapshot_every:1 in
  let s = Session.create ~algo:algo_pd ~seed:0 ~checkpoint:cp env in
  let rec serve k =
    if k = n then Alcotest.fail "the chain never reached three segments";
    ignore (handle_one s inst.Instance.requests.(k));
    let sc = Omflp_prelude.Snapshot_codec.scan (read_file (snap src)) in
    if sc.Omflp_prelude.Snapshot_codec.segments < 3 then serve (k + 1)
  in
  serve 0;
  Checkpoint.close cp;
  let chain = read_file (snap src) in
  let logs =
    List.map
      (fun f -> (f, read_file (Filename.concat src f)))
      [ "MANIFEST.json"; "wal.jsonl"; "decisions.jsonl" ]
  in
  let starts = segment_starts chain in
  let last = List.nth starts (List.length starts - 1) in
  let base_end = List.nth starts 1 in
  let covered_before =
    (Omflp_prelude.Snapshot_codec.scan (String.sub chain 0 last))
      .Omflp_prelude.Snapshot_codec.count
  in
  let with_chain bytes f =
    with_temp_dir @@ fun dir ->
    Unix.mkdir dir 0o755;
    List.iter (fun (name, c) -> write_file (Filename.concat dir name) c) logs;
    write_file (snap dir) bytes;
    f dir
  in
  let open_rz dir () =
    Checkpoint.open_resume ~dir
      ~n_sites:(Instance.n_sites inst)
      ~n_commodities:(Instance.n_commodities inst)
      ~instance_md5:md5
  in
  for cut = last to String.length chain - 1 do
    with_chain (String.sub chain 0 cut) (fun dir ->
        let rz = open_rz dir () in
        (match rz.Checkpoint.snapshot with
        | Some (count, _) ->
            check_int "resumes from the segment before the torn one"
              covered_before count
        | None -> Alcotest.fail "expected a snapshot");
        check_int "the torn segment is cut off the file" last
          (String.length (read_file (snap dir)));
        let s, _ = Session.resume ~algo:algo_pd rz env in
        for i = Session.count s to n - 1 do
          ignore (handle_one s inst.Instance.requests.(i))
        done;
        Session.close s;
        Alcotest.(check (list string))
          (Printf.sprintf "decision log after a cut at byte %d of %d" cut
             (String.length chain))
          reference
          (read_lines (Filename.concat dir "decisions.jsonl")))
  done;
  List.iter
    (fun (what, lo, hi) ->
      for i = lo to hi - 1 do
        let b = Bytes.of_string chain in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
        with_chain (Bytes.to_string b) (fun dir ->
            match open_rz dir () with
            | rz ->
                Checkpoint.close rz.Checkpoint.cp;
                Alcotest.failf "a flipped byte %d in the %s was accepted" i what
            | exception Failure msg ->
                if not (contains ~sub:"Checkpoint.resume: " msg) then
                  Alcotest.failf "byte %d of the %s: unnamed failure %S" i what
                    msg)
      done)
    [ ("base", 0, base_end); ("non-tail delta", base_end, last) ]

(* O(delta) checkpoints: on the durable benchmark's shape (clustered, 16
   sites, |S| = 8, cadence 16) a checkpointed PD-OMFLP session writes
   about as many snapshot bytes per request over 2,000 requests as over
   250; rewriting the whole state at every cadence point wrote 7.2 times
   as many. Bytes are counted off the file after each cadence point and
   at close: a base leaves a one-segment file, a delta grows the file by
   its own size. *)
let test_snapshot_bytes_per_request_bounded () =
  let inst =
    Generators.clustered (Omflp_prelude.Splitmix.of_int 1) ~clusters:4
      ~per_cluster:4 ~n_requests:2000 ~n_commodities:8 ~side:100.0 ~spread:2.0
      ~cost:(fun ~n_commodities ~n_sites ->
        Omflp_commodity.Cost_function.power_law ~n_commodities ~n_sites ~x:1.0)
  in
  let per_request len =
    with_temp_dir @@ fun dir ->
    let path = Filename.concat dir "snapshot.bin" in
    let cp = fresh_checkpoint ~dir ~snapshot_every:16 in
    let s =
      Session.create ~algo:algo_pd ~seed:0 ~checkpoint:cp (Instance.env inst)
    in
    let written = ref 0 and size = ref 0 in
    let account () =
      let chain = read_file path in
      let sc = Omflp_prelude.Snapshot_codec.scan chain in
      written :=
        !written
        + (if sc.Omflp_prelude.Snapshot_codec.segments = 1 then
             String.length chain
           else String.length chain - !size);
      size := String.length chain
    in
    for i = 0 to len - 1 do
      ignore (handle_one s inst.Instance.requests.(i));
      if Session.count s mod 16 = 0 then account ()
    done;
    let at_cadence = Session.count s mod 16 = 0 in
    Session.close s;
    if not at_cadence then account ();
    float_of_int !written /. float_of_int len
  in
  let short = per_request 250 and long = per_request 2000 in
  check_bool
    (Printf.sprintf
       "%.0f snapshot bytes/request at 2000 requests vs %.0f at 250 (bound 2x)"
       long short)
    true
    (long <= 2.0 *. short)

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

(* The manifest writes the seed with [string_of_int] but read it back
   through a double, so a seed of 2^53 or more resumed as another seed
   and the replay diverged from the session's own decision log at index
   0. Such a seed is now refused by name when the checkpoint is created,
   and a manifest number that is not an exact int is refused on resume
   instead of being read as 0. *)
let test_checkpoint_seed_exact_or_refused () =
  let inst, _ = scenario 0 in
  let create ~dir seed =
    Checkpoint.create ~dir ~algo:Pd_omflp.name ~seed:(Some seed)
      ~instance_md5:md5 ~snapshot_every:4
  in
  let open_rz dir () =
    Checkpoint.open_resume ~dir
      ~n_sites:(Instance.n_sites inst)
      ~n_commodities:(Instance.n_commodities inst)
      ~instance_md5:md5
  in
  (with_temp_dir @@ fun dir ->
   expect_failure ~substring:"seed 1152921504606846977" (fun () ->
       create ~dir 1152921504606846977);
   expect_failure ~substring:"seed -9007199254740992" (fun () ->
       create ~dir (-9007199254740992));
   check_bool "a refused seed leaves no manifest" false
     (Sys.file_exists (Filename.concat dir "MANIFEST.json")));
  (with_temp_dir @@ fun dir ->
   Checkpoint.close (create ~dir 9007199254740991);
   let rz = open_rz dir () in
   Alcotest.(check (option int))
     "2^53 - 1 resumes as itself" (Some 9007199254740991)
     (Checkpoint.seed rz.Checkpoint.cp);
   Checkpoint.close rz.Checkpoint.cp);
  let with_edit ~old ~by f =
    with_temp_dir @@ fun dir ->
    ignore (crash_after ~dir ~snapshot_every:4 5);
    rewrite_manifest ~dir ~old ~by;
    f dir
  in
  with_edit ~old:{|"seed":0|} ~by:{|"seed":1e300|} (fun dir ->
      expect_failure ~substring:{|"seed" must be an integer or null|}
        (open_rz dir));
  with_edit ~old:{|"seed":0|} ~by:{|"seed":1152921504606846977|} (fun dir ->
      expect_failure ~substring:{|"seed" must be an integer or null|}
        (open_rz dir));
  with_edit ~old:{|"snapshot_every":4|} ~by:{|"snapshot_every":1e300|}
    (fun dir ->
      expect_failure
        ~substring:{|"snapshot_every" must be an integer (got 1e+300)|}
        (open_rz dir))

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
    ignore (handle_one sa inst.Instance.requests.(i))
  done;
  (* B: same shape (snapshot at count 4) but a different history — the
     first request served six times over. *)
  let cp_b = fresh_checkpoint ~dir:dir_b ~snapshot_every:4 in
  let sb =
    Session.create ~algo:algo_pd ~seed:0 ~checkpoint:cp_b (Instance.env inst)
  in
  for _ = 1 to 6 do
    ignore (handle_one sb inst.Instance.requests.(0))
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

let server_config ~root ~env ?(max_sessions = 64) ?(workers = 2) () =
  {
    Server.listen = Filename.concat root "srv.sock";
    algo = Pd_omflp.name;
    env;
    instance_md5 = md5;
    checkpoint_root = Some (Filename.concat root "cps");
    snapshot_every = 4;
    seed = 0;
    max_sessions;
    workers;
  }

(* Tentpole acceptance: 8 concurrent sessions through one server, each
   stream a distinct rotation (wrapping past the instance length, so
   snapshots fire mid-stream), durable logs byte-identical to the same
   streams served by a plain single-session [Session] — which is what
   stdin mode drives. A window of 5 keeps several requests in flight
   per session, so one read can carry several lines and they are
   stepped as one batch; the sessions share the server's two loops. *)
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
                (handle_one s inst.Instance.requests.((i + j) mod n)))
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

(* The client request line for [r] (the stdin and socket format). *)
let request_line (r : Request.t) =
  Printf.sprintf {|{"site":%d,"demand":[%s]}|} r.Request.site
    (String.concat ","
       (List.map string_of_int
          (Omflp_commodity.Cset.elements r.Request.demand)))

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

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
  let request_lines = Array.map request_line inst.Instance.requests in
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
        |> List.map (fun r -> Wire.decision_to_json (handle_one s r))
      in
      Alcotest.(check (list string))
        "decision log byte-identical across SIGKILL" reference
        (read_lines
           (Filename.concat cps (Filename.concat "s" "decisions.jsonl"))))

(* ---------- stdin mode, driven through the real binary ---------- *)

(* [omflp serve] in stdin mode with PD-OMFLP and seed 0 (the socket
   tests' server defaults): [input] on stdin, stdout into [output]. *)
let serve_stdin ~env_file ~input ~output args =
  let fd_in = Unix.openfile input [ Unix.O_RDONLY ] 0 in
  let fd_out =
    Unix.openfile output [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let argv =
    [ cli_binary; "serve"; "--algo"; Pd_omflp.name; "--env"; env_file;
      "--seed"; "0" ]
    @ args
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ fd_in; fd_out; devnull ])
      (fun () ->
        Unix.create_process cli_binary (Array.of_list argv) fd_in fd_out
          devnull)
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "%s failed" (String.concat " " argv)

let write_stream path lines =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines)

(* Stdin and socket sessions open through [Session.start] and step
   through [Session.handle_batch]; the socket drains several requests
   per batch, stdin one. The checkpoint files of the same stream must be
   byte-identical, snapshot included. *)
let test_stdin_matches_socket_session () =
  if not (Sys.file_exists cli_binary) then Alcotest.skip ();
  let inst, _ = scenario 0 in
  let n = Instance.n_requests inst in
  with_server_root @@ fun root ->
  let env_file = Filename.concat root "env.inst" in
  Serial.save_file env_file inst;
  let dumps = Filename.concat root "dumps" in
  let cfg = server_config ~root ~env:inst () in
  let server = Server.start cfg in
  let per = (2 * n) + 3 in
  (match
     Fun.protect
       ~finally:(fun () -> Server.stop server)
       (fun () ->
         Omflp_loadgen.Loadgen.run
           {
             Omflp_loadgen.Loadgen.connect = cfg.Server.listen;
             env = inst;
             sessions = 1;
             requests_per_session = per;
             algo = None;
             seed = None;
             snapshot_every = None;
             checkpoint = None;
             resume = false;
             window = 5;
             session_prefix = "st";
             dump_dir = Some dumps;
           })
   with
  | Error e -> Alcotest.fail e
  | Ok report ->
      check_int "every request answered" per
        report.Omflp_loadgen.Loadgen.r_requests);
  let stdin_dir = Filename.concat root "stdin" in
  serve_stdin ~env_file
    ~input:(Filename.concat dumps "st0.jsonl")
    ~output:(Filename.concat root "stdin.out")
    [ "--checkpoint"; stdin_dir; "--snapshot-every";
      string_of_int cfg.Server.snapshot_every ];
  check_int "stdin answered every line" per
    (List.length (read_lines (Filename.concat root "stdin.out")));
  let socket_dir = Filename.concat (Filename.concat root "cps") "st0" in
  List.iter
    (fun f ->
      let bytes dir =
        In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all
      in
      check_string
        (Printf.sprintf "%s byte-identical, stdin vs socket" f)
        (bytes socket_dir) (bytes stdin_dir))
    [ "wal.jsonl"; "decisions.jsonl"; "snapshot.bin" ]

(* Stdin EOF closes the session; [--resume] with the whole stream skips
   the lines already served, prints only the remaining decisions, and
   leaves the straight-through decision log. *)
let test_stdin_eof_then_resume () =
  if not (Sys.file_exists cli_binary) then Alcotest.skip ();
  let inst, _ = scenario 0 in
  let n = Instance.n_requests inst in
  let k = (n / 2) + 1 in
  with_server_root @@ fun root ->
  let env_file = Filename.concat root "env.inst" in
  Serial.save_file env_file inst;
  let lines = Array.to_list (Array.map request_line inst.Instance.requests) in
  let full = Filename.concat root "full.jsonl" in
  let prefix = Filename.concat root "prefix.jsonl" in
  write_stream full lines;
  write_stream prefix (List.filteri (fun i _ -> i < k) lines);
  let dir = Filename.concat root "ck" in
  let ckpt = [ "--checkpoint"; dir; "--snapshot-every"; "3" ] in
  let first = Filename.concat root "first.out" in
  let resumed = Filename.concat root "resumed.out" in
  serve_stdin ~env_file ~input:prefix ~output:first ckpt;
  check_int "first run answers the prefix" k (List.length (read_lines first));
  serve_stdin ~env_file ~input:full ~output:resumed (ckpt @ [ "--resume" ]);
  let indices =
    List.map
      (fun l ->
        match Wire.parse_server_line l with
        | Ok (Wire.Decision_line i) -> i
        | _ -> Alcotest.failf "unexpected stdout line %S" l)
      (read_lines resumed)
  in
  Alcotest.(check (list int))
    "resumed stdout holds only the remaining decisions"
    (List.init (n - k) (fun i -> k + i))
    indices;
  Alcotest.(check (list string))
    "decision log equals the straight-through run" (reference_decisions inst)
    (read_lines (Filename.concat dir "decisions.jsonl"))

(* ---------- socket clients with a deadline ---------- *)

(* The next line from [fd], failing the test when none arrives within
   10 s. It reads under SO_RCVTIMEO, not [select], so it also works on a
   descriptor at or above FD_SETSIZE. *)
let recv_within fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  let b = Buffer.create 128 and c = Bytes.create 1 in
  let rec go () =
    match Unix.read fd c 0 1 with
    | 0 -> Alcotest.fail "the server closed the connection mid-line"
    | _ when Bytes.get c 0 = '\n' -> Buffer.contents b
    | _ ->
        Buffer.add_char b (Bytes.get c 0);
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Alcotest.fail "no line from the server within 10 s"
  in
  go ()

let server_line_within fd =
  match Wire.parse_server_line (recv_within fd) with
  | Ok l -> l
  | Error e -> Alcotest.failf "unparseable server line: %s" e

let write_line fd line =
  let s = line ^ "\n" in
  ignore (Unix.write_substring fd s 0 (String.length s))

(* Writes as much of [s] as the socket takes without blocking. *)
let send_what_fits fd s =
  Unix.set_nonblock fd;
  let rec go off =
    if off < String.length s then
      match Unix.single_write_substring fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
  in
  go 0;
  Unix.clear_nonblock fd

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* A whole session on [fd]: hello, ack, one request and a half-close,
   its decision, the done record. *)
let one_request_session fd id request =
  write_line fd (hello_line id);
  (match server_line_within fd with
  | Wire.Ack _ -> ()
  | _ -> Alcotest.failf "session %s: expected an ack" id);
  write_line fd request;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  (match server_line_within fd with
  | Wire.Decision_line 0 -> ()
  | _ -> Alcotest.failf "session %s: expected decision 0" id);
  match server_line_within fd with
  | Wire.Done (1, _) -> ()
  | _ -> Alcotest.failf "session %s: expected a done record" id

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
  let request = request_line inst.Instance.requests.(0) in
  let serve_one id =
    let fd = Listener.connect cfg.Server.listen in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> one_request_session fd id request)
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

(* ---------- the event loop: stalls, bounds, accept errors ---------- *)

(* A client that streams requests and never reads the replies stalls
   only its own session: on a one-loop server, another session still
   gets its decisions. *)
let test_server_stuck_reader_stalls_only_itself () =
  let inst, _ = scenario 0 in
  with_server_root @@ fun root ->
  let cfg =
    {
      (server_config ~root ~env:inst ~workers:1 ()) with
      Server.checkpoint_root = None;
    }
  in
  let server = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let request = request_line inst.Instance.requests.(0) in
  let a = Listener.connect cfg.Server.listen in
  let b = ref None in
  Fun.protect
    ~finally:(fun () ->
      close_quietly a;
      Option.iter close_quietly !b)
  @@ fun () ->
  let stream = Buffer.create (1 lsl 20) in
  Buffer.add_string stream (hello_line "a" ^ "\n");
  for _ = 1 to 40_000 do
    Buffer.add_string stream (request ^ "\n")
  done;
  send_what_fits a (Buffer.contents stream);
  (* Let the server fill a's socket with replies nobody reads. *)
  Unix.sleepf 0.5;
  let fd = Listener.connect cfg.Server.listen in
  b := Some fd;
  one_request_session fd "b" request

(* No line grows without bound: 200,000 bytes with no newline get the
   error naming the bound, and the server closes the connection. *)
let test_server_line_bound () =
  let inst, _ = scenario 0 in
  with_server_root @@ fun root ->
  let cfg = server_config ~root ~env:inst ~workers:1 () in
  let server = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let fd = Listener.connect cfg.Server.listen in
  Fun.protect ~finally:(fun () -> close_quietly fd) @@ fun () ->
  send_what_fits fd (String.make 200_000 'x');
  (match server_line_within fd with
  | Wire.Refused e ->
      check_string "error names the bound" "line longer than 65536 bytes" e
  | _ -> Alcotest.fail "expected the line-bound error");
  check_bool "then the connection closes" true
    (match Unix.read fd (Bytes.create 1) 0 1 with
    | n -> n = 0
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true)

(* [select] cannot watch a descriptor at or above FD_SETSIZE (1024): a
   connection accepted on one is refused by name, and once descriptors
   free up the next connection is served. *)
let test_server_descriptor_cap () =
  let inst, _ = scenario 0 in
  with_server_root @@ fun root ->
  let cfg = server_config ~root ~env:inst ~workers:1 () in
  let server = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let held = ref [] in
  let release () =
    List.iter close_quietly !held;
    held := []
  in
  Fun.protect
    ~finally:(fun () ->
      release ();
      Unix.close null)
  @@ fun () ->
  (try
     for _ = 1 to 1100 do
       held := Unix.dup ~cloexec:true null :: !held
     done
   with Unix.Unix_error (Unix.EMFILE, _, _) ->
     release ();
     Alcotest.skip ());
  let fd = Listener.connect cfg.Server.listen in
  (match
     Fun.protect
       ~finally:(fun () -> close_quietly fd)
       (fun () -> server_line_within fd)
   with
  | Wire.Refused e ->
      check_bool "refusal names the descriptor limit" true
        (contains ~sub:"descriptor limit" e)
  | _ -> Alcotest.fail "expected a descriptor-limit refusal");
  release ();
  let fd = Listener.connect cfg.Server.listen in
  Fun.protect ~finally:(fun () -> close_quietly fd) @@ fun () ->
  one_request_session fd "low" (request_line inst.Instance.requests.(0))

(* Whatever a step raises aborts only its session, with an error line:
   a snapshot write failing with [Sys_error] (the session's checkpoint
   directory is gone) reaches the client, the session's log descriptors
   are closed, and the server goes on serving. *)
let test_server_step_error_aborts_session () =
  if not (Sys.file_exists "/proc/self/fd") then Alcotest.skip ();
  let inst, _ = scenario 0 in
  with_server_root @@ fun root ->
  let cfg = server_config ~root ~env:inst ~workers:1 () in
  let server = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let request = request_line inst.Instance.requests.(0) in
  let dir = Filename.concat (Filename.concat root "cps") "doomed" in
  let fd = Listener.connect cfg.Server.listen in
  Fun.protect
    ~finally:(fun () -> close_quietly fd)
    (fun () ->
      write_line fd (hello_line ~snapshot_every:1 "doomed");
      (match server_line_within fd with
      | Wire.Ack _ -> ()
      | _ -> Alcotest.fail "expected an ack");
      rm_rf dir;
      write_line fd request;
      match server_line_within fd with
      | Wire.Refused e ->
          check_bool "the error reaches the client" true
            (contains ~sub:"No such file or directory" e)
      | _ -> Alcotest.fail "expected the step's error line");
  let open_under_dir =
    Sys.readdir "/proc/self/fd"
    |> Array.exists (fun n ->
           match Unix.readlink (Filename.concat "/proc/self/fd" n) with
           | target -> contains ~sub:dir target
           | exception Unix.Unix_error _ -> false)
  in
  check_bool "the session's logs are closed" false open_under_dir;
  let fd = Listener.connect cfg.Server.listen in
  Fun.protect ~finally:(fun () -> close_quietly fd) @@ fun () ->
  one_request_session fd "next" request

(* An accept error must not end the server: under a 32-descriptor limit,
   40 idle connections run it out of descriptors; once they close, a
   real session is served and the process is still running. *)
let test_server_survives_emfile () =
  if not (Sys.file_exists cli_binary) then Alcotest.skip ();
  let inst, _ = scenario 0 in
  with_server_root @@ fun root ->
  let env_file = Filename.concat root "env.inst" in
  Serial.save_file env_file inst;
  let sock = Filename.concat root "srv.sock" in
  let log = Filename.concat root "serve.log" in
  let pid =
    let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close logfd)
      (fun () ->
        Unix.create_process "sh"
          [|
            "sh"; "-c";
            {|ulimit -n 32; exec "$0" serve --env "$1" --listen "$2" --workers 2 --seed 0|};
            cli_binary; env_file; sock;
          |]
          Unix.stdin Unix.stdout logfd)
  in
  Fun.protect ~finally:(fun () -> reap pid) @@ fun () ->
  let idle = List.init 40 (fun _ -> wait_connect sock) in
  let ran_out () =
    contains ~sub:"accept: Too many open files"
      (In_channel.with_open_bin log In_channel.input_all)
  in
  let rec await tries =
    if tries > 0 && not (ran_out ()) then begin
      Unix.sleepf 0.05;
      await (tries - 1)
    end
  in
  await 200;
  check_bool "the server logged the accept error" true (ran_out ());
  List.iter close_quietly idle;
  let fd = wait_connect sock in
  Fun.protect
    ~finally:(fun () -> close_quietly fd)
    (fun () ->
      one_request_session fd "real" (request_line inst.Instance.requests.(0)));
  check_bool "the server is still running" true
    (fst (Unix.waitpid [ Unix.WNOHANG ] pid) = 0)

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

(* A session closed right on a cadence point already has its snapshot:
   [close] must not encode and rewrite the same one. Two cadence
   snapshots, none at close — and the directory still resumes into the
   uninterrupted decision log. *)
let test_close_skips_cadence_snapshot () =
  with_temp_dir @@ fun dir ->
  let inst, _ = scenario 0 in
  let every = Instance.n_requests inst / 3 in
  check_bool "scenario long enough" true (every >= 1);
  let snapshots = Omflp_obs.Metrics.counter "serve.snapshots" in
  Omflp_obs.Metrics.set_enabled true;
  let written =
    Fun.protect
      ~finally:(fun () -> Omflp_obs.Metrics.set_enabled false)
      (fun () ->
        let before = Omflp_obs.Metrics.value snapshots in
        let cp = fresh_checkpoint ~dir ~snapshot_every:every in
        let s =
          Session.create ~algo:algo_pd ~seed:0 ~checkpoint:cp
            (Instance.env inst)
        in
        for c = 0 to 1 do
          ignore
            (Session.handle_batch s
               (Array.sub inst.Instance.requests (c * every) every))
        done;
        Session.close s;
        Omflp_obs.Metrics.value snapshots - before)
  in
  check_int "snapshots for 2 x cadence requests" 2 written;
  let rz, lost, _ = resume_and_finish ~dir inst in
  (match rz.Checkpoint.snapshot with
  | Some (count, _) ->
      check_int "resumes from the cadence snapshot" (2 * every) count
  | None -> Alcotest.fail "expected a snapshot");
  check_int "nothing to re-emit" 0 (List.length lost);
  Alcotest.(check (list string))
    "resumed decision log" (reference_decisions inst)
    (read_lines (Filename.concat dir "decisions.jsonl"))

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

(* PD-OMFLP's v3 segments carried its event log; the tag moved to .v4,
   and so did HEAVY-AWARE's, which embeds PD's state. The last v3
   fixtures of both are kept under snapshot_legacy/v3/: restore refuses
   them naming the old tag, and a checkpoint whose snapshot.bin holds
   the old PD chain fails to resume by name instead of resuming. *)
let test_retired_v3_blobs_refused () =
  let inst, _ = scenario 0 in
  let env = Instance.env inst in
  let legacy name =
    read_file (fixture_path ~dir:(Filename.concat "snapshot_legacy" "v3") name)
  in
  let old_tag name = "omflp.snap." ^ String.lowercase_ascii name ^ ".v3" in
  List.iter
    (fun (name, restore) ->
      expect_failure ~substring:(old_tag name) (fun () ->
          restore env (legacy name)))
    pd_restores;
  with_temp_dir @@ fun dir ->
  (* The fixture covers the first 5 requests of this scenario, which the
     checkpoint's WAL and decision log hold too. *)
  ignore (crash_after ~dir ~snapshot_every:5 5);
  write_file (Filename.concat dir "snapshot.bin") (legacy Pd_omflp.name);
  expect_failure ~substring:(old_tag Pd_omflp.name) (fun () ->
      Session.start ~algo:algo_pd ~seed:0 ~instance_md5:md5
        ~checkpoint:(Some (dir, 5)) ~resume:true env)

(* ---------- the committed wire fixture ---------- *)

(* test/golden/wire/ was written by tools/gen_wire_fixture.exe with the
   Minijson/Printf codecs that the request scanner and the number
   writers replaced; every byte must still come out the same. *)
let fixture_latency_s = 1.234e-4 (* mirrors tools/gen_wire_fixture.ml *)

let golden_path rel =
  let p = Filename.concat "golden" rel in
  if Sys.file_exists p then p else Filename.concat "test" p

(* A fixture file as its [(tag, rest)] lines. *)
let fixture_lines rel =
  In_channel.with_open_bin (golden_path rel) In_channel.input_lines
  |> List.map (fun l ->
         match String.index_opt l ' ' with
         | Some i ->
             (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
         | None -> Alcotest.failf "malformed fixture line %S" l)

let tagged t lines =
  List.filter_map (fun (t', l) -> if t = t' then Some l else None) lines

(* The skeleton of every floats.txt case; mirrors
   tools/gen_wire_fixture.ml. *)
let special_decision k v =
  let cs = Omflp_commodity.Cset.of_list ~n_commodities:4 [ 0; 2 ] in
  {
    Wire.index = k;
    site = 3;
    demand = [ 0; 2 ];
    service =
      (if k mod 2 = 0 then Service.To_single 7
       else Service.Per_commodity [ (0, 7); (2, 8) ]);
    opened =
      [
        {
          Facility.id = 7;
          site = 3;
          kind = Facility.Small 0;
          offered = Omflp_commodity.Cset.singleton ~n_commodities:4 0;
          cost = v;
          opened_at = k;
        };
        {
          Facility.id = 8;
          site = 1;
          kind = Facility.Custom cs;
          offered = cs;
          cost = v;
          opened_at = k;
        };
      ];
    construction = v;
    assignment = v;
    total = v;
  }

(* streams.txt as [(scenario, algorithm, lines)], split at its
   "scenario" lines. *)
let fixture_streams () =
  let close acc = function Some (i, n, ls) -> (i, n, List.rev ls) :: acc | None -> acc in
  let rec go acc cur = function
    | [] -> List.rev (close acc cur)
    | ("scenario", rest) :: tl -> (
        match String.split_on_char ' ' rest with
        | [ idx; name ] -> go (close acc cur) (Some (int_of_string idx, name, [])) tl
        | _ -> Alcotest.failf "malformed scenario line %S" rest)
    | line :: tl -> (
        match cur with
        | Some (idx, name, ls) -> go acc (Some (idx, name, line :: ls)) tl
        | None -> Alcotest.fail "fixture line before any scenario")
  in
  go [] None (fixture_lines "wire/streams.txt")

(* Every stream is served in batches of 3 through a checkpointed
   session, so its WAL and decision log are written by
   Session.handle_batch; each request and decision is also encoded and
   parsed by hand. *)
let test_wire_fixture_bytes () =
  let streams = fixture_streams () in
  check_int "one stream per registered algorithm"
    (List.length (Registry.extended ()))
    (List.length streams);
  List.iter
    (fun (idx, name, lines) ->
      let algo =
        match Registry.find name with
        | Ok a -> a
        | Error _ -> Alcotest.failf "fixture names unknown algorithm %s" name
      in
      let inst, seed = scenario idx in
      let env = Instance.env inst in
      let n_sites = Omflp_metric.Finite_metric.size (Problem_env.metric env) in
      let n_commodities =
        Omflp_commodity.Cost_function.n_commodities (Problem_env.cost env)
      in
      let reqs = inst.Instance.requests in
      let n = Array.length reqs in
      let lines_of t =
        let ls = Array.of_list (tagged t lines) in
        check_int (Printf.sprintf "%s %S lines" name t) n (Array.length ls);
        ls
      in
      let req = lines_of "req" and wal = lines_of "wal" in
      let dec = lines_of "dec" and lat = lines_of "lat" in
      let what i field = Printf.sprintf "%d %s request %d: %s" idx name i field in
      with_temp_dir @@ fun dir ->
      let (module A : Algo_intf.ALGO) = algo in
      let checkpoint =
        Checkpoint.create ~dir ~algo:A.name ~seed:(Some seed) ~instance_md5:md5
          ~snapshot_every:4
      in
      let s = Session.create ~algo ~seed ~checkpoint env in
      let ds =
        Array.concat
          (List.init ((n + 2) / 3) (fun k ->
               Session.handle_batch s (Array.sub reqs (3 * k) (min 3 (n - (3 * k))))))
      in
      let b = Buffer.create 256 in
      Array.iteri
        (fun i r ->
          check_string (what i "request line") req.(i) (Wire.request_line r);
          check_bool (what i "request line parses back") true
            (Wire.parse_request ~n_sites ~n_commodities req.(i) = Ok r);
          check_string (what i "WAL line") wal.(i) (Wire.request_to_json ~index:i r);
          check_bool (what i "WAL line parses back") true
            (Wire.parse_wal_line ~n_sites ~n_commodities wal.(i) = Ok (i, r));
          check_string (what i "decision") dec.(i) (Wire.decision_to_json ds.(i));
          check_string (what i "decision with latency") lat.(i)
            (Wire.decision_to_json ~latency_s:fixture_latency_s ds.(i));
          Buffer.clear b;
          Wire.decision_to_buffer ~latency_s:fixture_latency_s b ds.(i);
          check_string (what i "decision_to_buffer") lat.(i) (Buffer.contents b))
        reqs;
      let _, _, total = Session.running_costs s in
      check_string (name ^ " done record")
        (String.concat "" (tagged "done" lines))
        (Wire.done_to_json ~served:(Session.count s) ~total);
      Session.close s;
      let log ls = String.concat "" (Array.to_list (Array.map (fun l -> l ^ "\n") ls)) in
      check_string (name ^ " wal.jsonl") (log wal)
        (read_file (Filename.concat dir "wal.jsonl"));
      check_string (name ^ " decisions.jsonl") (log dec)
        (read_file (Filename.concat dir "decisions.jsonl")))
    streams;
  let rec cases k = function
    | ("case", bits) :: ("dec", dec) :: ("lat", lat) :: ("done", done_) :: tl ->
        let v = Int64.float_of_bits (Int64.of_string ("0x" ^ bits)) in
        let d = special_decision k v in
        check_string (bits ^ " decision") dec (Wire.decision_to_json d);
        check_string (bits ^ " latency") lat (Wire.decision_to_json ~latency_s:v d);
        check_string (bits ^ " done") done_ (Wire.done_to_json ~served:k ~total:v);
        cases (k + 1) tl
    | [] -> k
    | (t, l) :: _ -> Alcotest.failf "unexpected floats.txt line %s %S" t l
  in
  check_int "floats.txt cases" 25 (cases 0 (fixture_lines "wire/floats.txt"))

(* test/golden/wire/killed/ is a PD-OMFLP checkpoint on scenario 0 that
   the fixture's generator abandoned mid-stream: a snapshot chain at 5,
   9 durable decisions, 11 WAL lines. Resuming a copy recomputes
   decisions 5-8, requiring each to equal its durable line byte for
   byte, then re-emits 9 and 10. *)
let test_wire_fixture_killed_resumes () =
  let dec =
    match
      List.find_opt (fun (i, n, _) -> i = 0 && n = Pd_omflp.name) (fixture_streams ())
    with
    | Some (_, _, lines) -> tagged "dec" lines
    | None -> Alcotest.fail "no PD-OMFLP stream on scenario 0"
  in
  let inst, seed = scenario 0 in
  with_temp_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  List.iter
    (fun f ->
      copy_file (golden_path ("wire/killed/" ^ f)) (Filename.concat dir f))
    [ "MANIFEST.json"; "wal.jsonl"; "decisions.jsonl"; "snapshot.bin" ];
  let s, reemit =
    Session.start ~algo:algo_pd ~seed ~instance_md5:md5
      ~checkpoint:(Some (dir, 5)) ~resume:true (Instance.env inst)
  in
  check_int "served after resume" 11 (Session.count s);
  Alcotest.(check (list string))
    "re-emitted decisions" [ List.nth dec 9; List.nth dec 10 ]
    (List.map Wire.decision_to_json reemit);
  Session.close s;
  Alcotest.(check (list string))
    "decision log after resume" dec
    (read_lines (Filename.concat dir "decisions.jsonl"))

(* The Minijson reading the scanner defers to, as the request parsers
   had it: the reference for every line, canonical or not. *)
module Mj = Omflp_prelude.Minijson

let minijson_request ~n_sites ~n_commodities json =
  let int key = Option.bind (Mj.member key json) Mj.to_int in
  let demand =
    match Option.bind (Mj.member "demand" json) Mj.to_list with
    | None -> None
    | Some items ->
        let es = List.filter_map Mj.to_int items in
        if List.length es = List.length items then Some es else None
  in
  match (int "site", demand) with
  | None, _ -> Error {|missing or non-integer "site"|}
  | _, None -> Error {|missing or non-integer-list "demand"|}
  | Some site, Some demand ->
      if site < 0 || site >= n_sites then
        Error (Printf.sprintf "site %d out of range [0,%d)" site n_sites)
      else if demand = [] then Error "empty demand"
      else if List.exists (fun e -> e < 0 || e >= n_commodities) demand then
        Error (Printf.sprintf "demand commodity out of range [0,%d)" n_commodities)
      else
        Ok
          (Request.make ~site
             ~demand:(Omflp_commodity.Cset.of_list ~n_commodities demand))

let minijson_parse line k =
  match Mj.of_string line with
  | exception Mj.Parse_error msg -> Error ("bad JSON: " ^ msg)
  | json -> k json

let reference_request line =
  minijson_parse line (minijson_request ~n_sites:4 ~n_commodities:5)

let reference_wal line =
  minijson_parse line (fun json ->
      match Option.bind (Mj.member "index" json) Mj.to_int with
      | None -> Error {|missing or non-integer "index"|}
      | Some index ->
          Result.map
            (fun r -> (index, r))
            (minijson_request ~n_sites:4 ~n_commodities:5 json))

(* Request-ish lines: the canonical shape with random whitespace, and
   variants the scanner must hand to Minijson — reordered, repeated,
   missing and extra keys, leading zeros, signs, fractions, exponents,
   15-17-digit numbers, non-numbers — then sometimes truncated, with a
   byte replaced, or with trailing bytes. Values are drawn around
   n_sites = 4, n_commodities = 5, so both in- and out-of-range numbers
   occur. *)
let gen_request_line st =
  let int n = Random.State.int st n in
  let pick a = a.(int (Array.length a)) in
  let ws () =
    if int 3 = 0 then pick [| " "; "\t"; "\n"; "\r"; "  "; " \r\n\t" |] else ""
  in
  let num () =
    match int 16 with
    | 0 -> pick [| "00"; "01"; "007"; "-0"; "-1"; "+1"; "- 1" |]
    | 1 -> pick [| "1e0"; "1.0"; "2.5"; "10E-1"; "0.0"; "1e1"; "3."; ".5"; "1e" |]
    | 2 ->
        pick
          [| "100000000000000"; "999999999999999"; "1000000000000000";
             "9007199254740991"; "9007199254740993"; "12345678901234567";
             "00000000000000001" |]
    | 3 -> pick [| "\"1\""; "null"; "true"; "[]"; "{}"; "[1]" |]
    | _ -> string_of_int (int 7)
  in
  let list items = "[" ^ ws () ^ String.concat (ws () ^ "," ^ ws ()) items ^ ws () ^ "]" in
  let demand () = if int 10 = 0 then num () else list (List.init (int 5) (fun _ -> num ())) in
  let field key v = Printf.sprintf "\"%s\"%s:%s%s" key (ws ()) (ws ()) v in
  let fields =
    (if int 2 = 0 then [ field "index" (num ()) ] else [])
    @ [ field "site" (num ()); field "demand" (demand ()) ]
  in
  let fields =
    match int 8 with
    | 0 -> List.rev fields
    | 1 -> fields @ [ field "site" (num ()) ]
    | 2 -> field (pick [| "index"; "site"; "demand" |]) (num ()) :: fields
    | 3 -> fields @ [ field (pick [| "x"; "Site"; "sit\\u0065"; "index " |]) (num ()) ]
    | 4 -> List.tl fields
    | _ -> fields
  in
  let line =
    ws () ^ "{" ^ ws () ^ String.concat (ws () ^ "," ^ ws ()) fields ^ ws () ^ "}" ^ ws ()
  in
  let n = String.length line in
  match int 8 with
  | 0 -> String.sub line 0 (int n)
  | 1 ->
      let b = Bytes.of_string line in
      Bytes.set b (int n)
        (pick [| '{'; '}'; '['; ']'; ','; ':'; '"'; '0'; '7'; ' '; '-'; '.'; 'e'; '\\'; 'x'; '\000' |]);
      Bytes.to_string b
  | 2 -> line ^ pick [| ","; "}"; "x"; " 1"; "\000" |]
  | _ -> line

let prop_scanner_matches_minijson =
  QCheck.Test.make ~name:"scanner = Minijson on request and WAL lines"
    ~count:5000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_request_line)
    (fun line ->
      Wire.parse_request ~n_sites:4 ~n_commodities:5 line = reference_request line
      && Wire.parse_wal_line ~n_sites:4 ~n_commodities:5 line = reference_wal line)

let minor_words_per_call f =
  for _ = 1 to 64 do
    f ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    f ()
  done;
  (Gc.minor_words () -. w0) /. 1000.0

(* The direct codecs allocate little besides what they return: one
   canonical request parse measured 31 minor words (the scan cursor,
   the demand list and set, the request and its result; the Minijson
   tree it replaced was about 295), one socket decision line 13 (the
   latency string and the list iterators' closures; every number is
   written in place). The budgets are twice that, so a per-request tree
   or string creeping back shows. *)
let test_wire_codec_allocation_pinned () =
  let line = {|{"site":2,"demand":[0,1,3]}|} in
  let parse =
    minor_words_per_call (fun () ->
        ignore (Wire.parse_request ~n_sites:4 ~n_commodities:5 line))
  in
  check_bool
    (Printf.sprintf "%.1f minor words per request parse (budget 92)" parse)
    true (parse <= 92.0);
  let inst, seed = scenario 0 in
  let session = Session.create ~algo:algo_pd ~seed (Instance.env inst) in
  let d = handle_one session inst.Instance.requests.(0) in
  let b = Buffer.create 256 in
  let encode =
    minor_words_per_call (fun () ->
        Buffer.clear b;
        Wire.decision_to_buffer ~latency_s:1.234e-4 b d)
  in
  check_bool
    (Printf.sprintf "%.1f minor words per decision encode (budget 26)" encode)
    true (encode <= 26.0)

(* ---------- the request clock ---------- *)

(* A base payload ends with the count it covers, a copy of the store's
   request count. A payload whose copy disagrees with the store it holds
   is not a state any run wrote; restored, it would stamp its next
   opening with the wrong request, so restore refuses it by name. *)
let test_base_count_must_match_store () =
  let inst, seed = scenario 0 in
  let env = Instance.env inst in
  let t = Greedy_baseline.create ~seed env in
  for i = 0 to 4 do
    ignore (Greedy_baseline.step t inst.Instance.requests.(i))
  done;
  let blob =
    Omflp_prelude.Snapshot_codec.base ~tag:"omflp.snap.greedy.v3" ~count:5
      (fun w ->
        Facility_store.write w (Greedy_baseline.store t);
        Omflp_prelude.Snapshot_codec.w_int w 6)
  in
  expect_failure ~substring:"payload count 6 disagrees with its store"
    (fun () -> Greedy_baseline.restore env blob)

(* The snapshot header's count is where resume starts the WAL replay; a
   header that claims more than the state it restores has served would
   skip requests. Plant a base whose header covers 5 requests over a
   self-consistent PD-OMFLP state of 4. *)
let test_resume_refuses_header_count_mismatch () =
  let inst, _ = scenario 0 in
  let env = Instance.env inst in
  with_temp_dir @@ fun dir ->
  ignore (crash_after ~dir ~snapshot_every:5 5);
  let t = Pd_omflp.create ~seed:0 env in
  for i = 0 to 3 do
    ignore (Pd_omflp.step t inst.Instance.requests.(i))
  done;
  write_file
    (Filename.concat dir "snapshot.bin")
    (Omflp_prelude.Snapshot_codec.base ~tag:"omflp.snap.pd-omflp.v4" ~count:5
       (fun w -> Pd_omflp.write w t));
  expect_failure
    ~substring:
      "snapshot header covers 5 requests but the state it restores served 4"
    (fun () ->
      let rz =
        Checkpoint.open_resume ~dir
          ~n_sites:(Instance.n_sites inst)
          ~n_commodities:(Instance.n_commodities inst)
          ~instance_md5:md5
      in
      Session.resume ~algo:algo_pd rz env)

let () =
  Alcotest.run "serve"
    [
      ( "resume",
        [
          Alcotest.test_case "kill at every step, all algorithms" `Slow
            test_kill_at_every_step;
          Alcotest.test_case
            "chain restore through a checkpoint, all algorithms" `Slow
            test_chain_resume_all_algorithms;
          Alcotest.test_case "committed v3 fixtures restore and continue"
            `Quick test_snapshot_fixture_cross_version;
          Alcotest.test_case "v2 fixtures refused by name" `Quick
            test_v2_fixtures_refused;
          Alcotest.test_case "foreign blob rejected" `Quick
            test_snapshot_rejects_foreign_blob;
          Alcotest.test_case "legacy recomputing PD blobs refused" `Quick
            test_legacy_recomputing_blobs_refused;
          Alcotest.test_case "family mismatch refused at session open" `Quick
            test_session_family_mismatch;
          Alcotest.test_case "cross-family restore refused" `Quick
            test_cross_family_restore_refused;
          Alcotest.test_case "retired v3 PD blobs refused by name" `Quick
            test_retired_v3_blobs_refused;
          Alcotest.test_case "base count must match its store" `Quick
            test_base_count_must_match_store;
        ] );
      ( "wire",
        [
          Alcotest.test_case "parse request" `Quick test_wire_parse_request;
          Alcotest.test_case "wal round trip" `Quick test_wire_wal_round_trip;
          Alcotest.test_case "decision latency variants" `Quick
            test_wire_decision_latency_variants;
          Alcotest.test_case "decision buffer allocation bounded" `Quick
            test_wire_decision_buffer_allocation_bounded;
          Alcotest.test_case "JSON integers are exact or refused" `Quick
            test_wire_integers_exact_or_refused;
          Alcotest.test_case "WAL line errors are pinned" `Quick
            test_wire_wal_line_errors;
          Alcotest.test_case "committed fixture re-encodes byte for byte"
            `Quick test_wire_fixture_bytes;
          Alcotest.test_case "committed killed checkpoint resumes" `Quick
            test_wire_fixture_killed_resumes;
          QCheck_alcotest.to_alcotest prop_scanner_matches_minijson;
          Alcotest.test_case "codec allocation pinned" `Quick
            test_wire_codec_allocation_pinned;
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
          Alcotest.test_case "torn and damaged snapshot segments" `Quick
            test_torn_and_damaged_segments;
          Alcotest.test_case "snapshot bytes per request do not grow" `Quick
            test_snapshot_bytes_per_request_bounded;
          Alcotest.test_case "manifest validation" `Quick
            test_manifest_validation;
          Alcotest.test_case "resume detects divergent snapshot" `Quick
            test_resume_detects_divergent_snapshot;
          Alcotest.test_case "create refuses a live directory" `Quick
            test_create_refuses_live_directory;
          Alcotest.test_case "algorithm mismatch" `Quick
            test_session_algo_mismatch;
          Alcotest.test_case "close skips a snapshot the cadence wrote" `Quick
            test_close_skips_cadence_snapshot;
          Alcotest.test_case "stdin EOF, then --resume skips served lines"
            `Quick test_stdin_eof_then_resume;
          Alcotest.test_case "seeds past 2^53 are refused by name" `Quick
            test_checkpoint_seed_exact_or_refused;
          Alcotest.test_case "resume refuses a header count mismatch" `Quick
            test_resume_refuses_header_count_mismatch;
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
          Alcotest.test_case "stdin logs byte-identical to a socket session"
            `Quick test_stdin_matches_socket_session;
          Alcotest.test_case "a client that stops reading stalls only itself"
            `Quick test_server_stuck_reader_stalls_only_itself;
          Alcotest.test_case "request lines are bounded" `Quick
            test_server_line_bound;
          Alcotest.test_case "descriptors past FD_SETSIZE are refused" `Quick
            test_server_descriptor_cap;
          Alcotest.test_case "accept errors do not end the server" `Quick
            test_server_survives_emfile;
          Alcotest.test_case "a failing step aborts only its session" `Quick
            test_server_step_error_aborts_session;
        ] );
    ]
