type value = Int of int | Float of float | String of string | Bool of bool

type t = {
  oc : out_channel;
  (* Single-writer lock: concurrent sessions on different domains share
     one sink, and an unserialized [output]+[flush] pair interleaves —
     torn JSONL lines — while the unguarded [seq] bump duplicates
     sequence numbers. Each record's field list is rendered off-lock;
     the seq draw and the whole-line write+flush hold the lock. *)
  mutex : Mutex.t;
  mutable seq : int;
}

(* Append, never truncate: a resumed session (or a second sink on the
   same path) must extend the event log, not silently clobber it. *)
let open_file path =
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
  in
  { oc; mutex = Mutex.create (); seq = 0 }

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_value buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.9g" f)
      else Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | String s ->
      Buffer.add_char buf '"';
      escape_into buf s;
      Buffer.add_char buf '"'

let emit t ~kind fields =
  let tail = Buffer.create 128 in
  List.iter
    (fun (key, v) ->
      Buffer.add_string tail ",\"";
      escape_into tail key;
      Buffer.add_string tail "\":";
      add_value tail v)
    fields;
  Buffer.add_string tail "}\n";
  let head = Buffer.create 48 in
  Buffer.add_string head "{\"kind\":";
  add_value head (String kind);
  Buffer.add_string head ",\"seq\":";
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      Buffer.add_string head (string_of_int t.seq);
      t.seq <- t.seq + 1;
      Buffer.output_buffer t.oc head;
      Buffer.output_buffer t.oc tail;
      (* One flush per record: a crash loses at most the line being
         written, and a resumed session finds every event it emitted
         before dying. *)
      flush t.oc)

let close t = close_out t.oc

(* ---------- global current sink ---------- *)

let current : t option ref = ref None

let install t = current := Some t

let uninstall () = current := None

let installed () = Option.is_some !current

let emit_current ~kind fields =
  match !current with None -> () | Some t -> emit t ~kind fields
