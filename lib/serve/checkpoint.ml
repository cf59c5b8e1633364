open Omflp_prelude

let format_id = "omflp.serve.v2"
let manifest_file = "MANIFEST.json"
let wal_file = "wal.jsonl"
let decisions_file = "decisions.jsonl"
let snapshot_file = "snapshot.bin"

type t = {
  dir : string;
  algo : string;
  seed : int option;
  instance_md5 : string;
  snapshot_every : int;
  wal_oc : out_channel;
  dec_oc : out_channel;
  mutable chain_count : int; (* what [snapshot.bin] covers; -1 no file *)
}

let dir t = t.dir
let algo t = t.algo
let seed t = t.seed
let snapshot_every t = t.snapshot_every

let fail fmt = Printf.ksprintf failwith fmt
let ( / ) = Filename.concat

let append_channel path =
  open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path

let manifest_json ~algo ~seed ~instance_md5 ~snapshot_every =
  Printf.sprintf
    "{\"format\":%S,\"algo\":%S,\"seed\":%s,\"instance_md5\":%S,\"snapshot_every\":%d}\n"
    format_id algo
    (match seed with None -> "null" | Some s -> string_of_int s)
    instance_md5 snapshot_every

let create ~dir ~algo ~seed ~instance_md5 ~snapshot_every =
  if snapshot_every <= 0 then
    invalid_arg "Checkpoint.create: snapshot_every must be positive";
  (* The manifest keeps the seed as a JSON number, which [load_manifest]
     reads back exactly only below 2^53 in magnitude. *)
  (match seed with
  | Some s when Minijson.to_int (Minijson.Num (float_of_int s)) <> Some s ->
      fail
        "Checkpoint.create: seed %d cannot be checkpointed: the manifest \
         holds only seeds below 2^53 in magnitude"
        s
  | _ -> ());
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    fail "Checkpoint.create: %s exists and is not a directory" dir;
  if Sys.file_exists (dir / manifest_file) then
    fail
      "Checkpoint.create: %s already holds a session (found %s); resume it \
       or pick a fresh directory"
      dir manifest_file;
  Atomic_file.write_string (dir / manifest_file)
    (manifest_json ~algo ~seed ~instance_md5 ~snapshot_every);
  {
    dir;
    algo;
    seed;
    instance_md5;
    snapshot_every;
    wal_oc = append_channel (dir / wal_file);
    dec_oc = append_channel (dir / decisions_file);
    chain_count = -1;
  }

(* ---------- durable appends ---------- *)

(* [buf] holds whole newline-terminated lines; one write + flush makes
   the batch durable together. The WAL batch is flushed before the first
   step it covers and the decision batch after the last, so the
   crash-window invariant (snapshot <= decisions <= WAL) holds. *)
let append_wal_batch t buf =
  Buffer.output_buffer t.wal_oc buf;
  flush t.wal_oc

let append_decision_batch t buf =
  Buffer.output_buffer t.dec_oc buf;
  flush t.dec_oc

let close t =
  close_out t.wal_oc;
  close_out t.dec_oc

(* ---------- snapshots ---------- *)

(* The file is a segment chain: a base, replaced atomically, then the
   deltas appended behind it. A delta goes through a channel opened for
   that one append, so a session holds no snapshot descriptor between
   cadence points. *)
let write_snapshot t ~count seg =
  let kind, from, covered = Snapshot_codec.segment_info seg in
  if covered <> count then
    invalid_arg
      (Printf.sprintf
         "Checkpoint.write_snapshot: the segment covers %d requests, not %d"
         covered count);
  let path = t.dir / snapshot_file in
  (match kind with
  | Snapshot_codec.Base -> Atomic_file.write_string path seg
  | Snapshot_codec.Delta ->
      (* After a failed write the file no longer ends where the state's
         stream thinks it does; appending would break the chain. *)
      if from <> t.chain_count then
        fail
          "Checkpoint.write_snapshot: a delta from request %d does not \
           continue the snapshot file, which covers %d"
          from t.chain_count;
      let oc =
        open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path
      in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc seg;
          flush oc));
  t.chain_count <- count

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The chain's intact segments and the count the last one covers. A
   crash between a delta's append and its flush leaves a proper prefix
   of that segment at the end of the file: it is cut off, as a torn log
   line is. Anything else wrong — a damaged or truncated base (bases are
   renamed into place whole, so no crash tears one), a damaged segment
   anywhere, a broken chain — fails by name. *)
let load_snapshot path =
  if not (Sys.file_exists path) then None
  else begin
    let chain = read_file path in
    let sc = Snapshot_codec.scan chain in
    let at = Printf.sprintf "segment %d at byte %d" sc.segments sc.valid in
    match (sc.rest, sc.segments) with
    | Some (Snapshot_codec.Bad_header m), _ ->
        fail "Checkpoint.resume: corrupt snapshot header (%s: %s)" at m
    | Some Snapshot_codec.Bad_digest, _ ->
        fail "Checkpoint.resume: snapshot integrity check failed (%s)" at
    | (None | Some Snapshot_codec.Torn), 0 ->
        fail
          "Checkpoint.resume: snapshot integrity check failed (truncated base \
           segment)"
    | Some Snapshot_codec.Torn, _ ->
        Unix.truncate path sc.valid;
        Some (sc.count, String.sub chain 0 sc.valid)
    | None, _ -> Some (sc.count, chain)
  end

(* ---------- resume ---------- *)

(* Drop a torn (flushed-without-trailing-newline) final line; every line
   before the last flush ends in '\n', so at most the crash-interrupted
   record disappears. *)
let truncate_torn_tail path =
  if Sys.file_exists path then begin
    let content = read_file path in
    let len = String.length content in
    let keep =
      match String.rindex_opt content '\n' with
      | None -> 0
      | Some i -> i + 1
    in
    if keep < len then Unix.truncate path keep
  end

let read_lines path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  end

type resume = {
  cp : t;
  wal : (int * Omflp_instance.Request.t) list;
  decisions : string list;
  n_decisions : int;
  snapshot : (int * string) option;
}

(* Manifest fields feed arithmetic later ([count mod snapshot_every]) and
   algorithm seeding, so a hand-edited or corrupt value must fail here
   with a named error, not surface as a bare [Division_by_zero] or a
   silently truncated float mid-session. *)
let load_manifest ~dir =
  let path = dir / manifest_file in
  if not (Sys.file_exists path) then
    fail "Checkpoint.resume: %s has no %s (not a session directory)" dir
      manifest_file;
  let json =
    try Minijson.of_file path
    with Minijson.Parse_error msg ->
      fail "Checkpoint.resume: corrupt manifest: %s" msg
  in
  let str key =
    match Option.bind (Minijson.member key json) Minijson.to_string with
    | Some s -> s
    | None -> fail "Checkpoint.resume: manifest misses %S" key
  in
  let int key =
    match Minijson.member key json with
    | None -> fail "Checkpoint.resume: manifest misses %S" key
    | Some j -> (
        match (Minijson.to_int j, j) with
        | Some n, _ -> n
        | None, Minijson.Num f ->
            fail
              "Checkpoint.resume: manifest field %S must be an integer (got %g)"
              key f
        | None, _ ->
            fail "Checkpoint.resume: manifest field %S must be an integer" key)
  in
  let snapshot_every = int "snapshot_every" in
  if snapshot_every < 1 then
    fail "Checkpoint.resume: manifest field \"snapshot_every\" must be >= 1 \
          (got %d)"
      snapshot_every;
  let seed =
    match Minijson.member "seed" json with
    | None | Some Minijson.Null -> None
    | Some j -> (
        match Minijson.to_int j with
        | Some s -> Some s
        | None ->
            fail "Checkpoint.resume: manifest field \"seed\" must be an \
                  integer or null")
  in
  (str "format", str "algo", seed, str "instance_md5", snapshot_every)

let open_resume ~dir ~n_sites ~n_commodities ~instance_md5 =
  let format, algo, seed, manifest_md5, snapshot_every =
    load_manifest ~dir
  in
  if format <> format_id then
    fail "Checkpoint.resume: unsupported checkpoint format %S" format;
  if manifest_md5 <> instance_md5 then
    fail
      "Checkpoint.resume: instance mismatch: session was started on an \
       instance with md5 %s, got %s"
      manifest_md5 instance_md5;
  truncate_torn_tail (dir / wal_file);
  truncate_torn_tail (dir / decisions_file);
  let wal =
    List.mapi
      (fun i line ->
        match Wire.parse_wal_line ~n_sites ~n_commodities line with
        | Error e -> fail "Checkpoint.resume: corrupt WAL line %d: %s" i e
        | Ok (index, r) ->
            if index <> i then
              fail
                "Checkpoint.resume: WAL line %d carries index %d (log not \
                 sequential)"
                i index;
            (index, r))
      (read_lines (dir / wal_file))
  in
  let decisions = read_lines (dir / decisions_file) in
  let n_decisions = List.length decisions in
  let n_wal = List.length wal in
  if n_decisions > n_wal then
    fail
      "Checkpoint.resume: %d decisions but only %d WAL entries (decision \
       log ahead of its WAL)"
      n_decisions n_wal;
  let snapshot = load_snapshot (dir / snapshot_file) in
  (* The write order per batch is WAL flush -> decision flush ->
     snapshot, so a genuine crash always leaves
     snapshot count <= durable decisions <= WAL length; anything else is
     external corruption, and restoring would leave a hole in the
     decision log. *)
  (match snapshot with
  | Some (count, _) when count > n_decisions ->
      fail
        "Checkpoint.resume: snapshot covers %d requests but only %d \
         decisions are durable (decision log truncated?)"
        count n_decisions
  | _ -> ());
  let cp =
    {
      dir;
      algo;
      seed;
      instance_md5;
      snapshot_every;
      wal_oc = append_channel (dir / wal_file);
      dec_oc = append_channel (dir / decisions_file);
      chain_count = (match snapshot with Some (c, _) -> c | None -> -1);
    }
  in
  { cp; wal; decisions; n_decisions; snapshot }
