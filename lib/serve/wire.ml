open Omflp_prelude
open Omflp_commodity
open Omflp_instance
open Omflp_core

let buf_add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* [e1,e2,...] without the brackets. *)
let buf_add_ints b es =
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Numfmt.add_int b e)
    es

let buf_add_int_list b es =
  Buffer.add_char b '[';
  buf_add_ints b es;
  Buffer.add_char b ']'

(* ---------- requests ---------- *)

let int_member key json = Option.bind (Minijson.member key json) Minijson.to_int

let demand_member key json =
  match Option.bind (Minijson.member key json) Minijson.to_list with
  | None -> None
  | Some items ->
      let rec ints acc = function
        | [] -> Some (List.rev acc)
        | j :: rest -> (
            match Minijson.to_int j with
            | Some e -> ints (e :: acc) rest
            | None -> None)
      in
      ints [] items

let request_of_json ~n_sites ~n_commodities json =
  match (int_member "site" json, demand_member "demand" json) with
  | None, _ -> Error {|missing or non-integer "site"|}
  | _, None -> Error {|missing or non-integer-list "demand"|}
  | Some site, Some demand ->
      if site < 0 || site >= n_sites then
        Error (Printf.sprintf "site %d out of range [0,%d)" site n_sites)
      else if demand = [] then Error "empty demand"
      else if List.exists (fun e -> e < 0 || e >= n_commodities) demand then
        Error
          (Printf.sprintf "demand commodity out of range [0,%d)" n_commodities)
      else Ok (Request.make ~site ~demand:(Cset.of_list ~n_commodities demand))

(* The canonical request scanner: reads
   [{"index":k,"site":s,"demand":[e,...]}] ("index" optional) straight
   off the line, JSON whitespace allowed between tokens, every number
   plain digits. It answers only for a line whose every value is in
   range; any other line is [None] and goes to Minijson, whose answer —
   request or error — is the reference, so the scanner has no error
   message of its own. [index] is -1 until a line's "index" is read. *)
type cursor = { line : string; mutable pos : int; mutable index : int }

let skip_ws c =
  let n = String.length c.line in
  while
    c.pos < n
    && match String.unsafe_get c.line c.pos with
       | ' ' | '\t' | '\n' | '\r' -> true
       | _ -> false
  do
    c.pos <- c.pos + 1
  done

(* The next token is the character [ch]; consumes it. *)
let token c ch =
  skip_ws c;
  if c.pos < String.length c.line && String.unsafe_get c.line c.pos = ch then begin
    c.pos <- c.pos + 1;
    true
  end
  else false

let rec equal_at line pos w k =
  k = String.length w
  || (String.unsafe_get line (pos + k) = String.unsafe_get w k
     && equal_at line pos w (k + 1))

(* The next token is the literal [w] (a quoted key); consumes it. *)
let word c w =
  skip_ws c;
  if c.pos + String.length w <= String.length c.line && equal_at c.line c.pos w 0
  then begin
    c.pos <- c.pos + String.length w;
    true
  end
  else false

(* The next token is a natural Minijson reads exactly: ["0"] or a
   nonzero digit and at most 14 more digits (below 2^53). Its value,
   consumed; -1 otherwise. A sign, fraction or exponent after the
   digits is left for the next token check to refuse. *)
let natural c =
  skip_ws c;
  let line = c.line in
  let n = String.length line in
  let i = ref c.pos and v = ref 0 in
  while !i < n && String.unsafe_get line !i >= '0' && String.unsafe_get line !i <= '9' do
    v := (!v * 10) + Char.code (String.unsafe_get line !i) - 48;
    incr i
  done;
  let digits = !i - c.pos in
  if digits = 0 || digits > 15 || (digits > 1 && String.unsafe_get line c.pos = '0')
  then -1
  else begin
    c.pos <- !i;
    !v
  end

(* An optional leading ["index":k,]. *)
let index_field c =
  (not (word c {|"index"|}))
  || (token c ':'
     && (c.index <- natural c;
         c.index >= 0)
     && token c ',')

(* The demand list from after its ["["] to the line's end; [es] holds
   the commodities read so far, newest first. *)
let rec scan_commodities c ~site ~n_commodities es =
  let e = natural c in
  if e < 0 || e >= n_commodities then None
  else if token c ',' then scan_commodities c ~site ~n_commodities (e :: es)
  else if token c ']' && token c '}' then begin
    skip_ws c;
    if c.pos = String.length c.line then
      Some (Request.make ~site ~demand:(Cset.of_list ~n_commodities (e :: es)))
    else None
  end
  else None

let scan_request ~n_sites ~n_commodities c =
  if not (token c '{' && index_field c && word c {|"site"|} && token c ':') then
    None
  else
    let site = natural c in
    if
      site < 0 || site >= n_sites
      || not (token c ',' && word c {|"demand"|} && token c ':' && token c '[')
    then None
    else scan_commodities c ~site ~n_commodities []

let parse_request ~n_sites ~n_commodities line =
  match scan_request ~n_sites ~n_commodities { line; pos = 0; index = -1 } with
  | Some r -> Ok r
  | None -> (
      match Minijson.of_string line with
      | exception Minijson.Parse_error msg -> Error ("bad JSON: " ^ msg)
      | json -> request_of_json ~n_sites ~n_commodities json)

(* Both encodings end with the request's own fields: ["site":s,
   "demand":[...]}]. *)
let buf_add_request_fields b (r : Request.t) =
  Buffer.add_string b "\"site\":";
  Numfmt.add_int b r.site;
  Buffer.add_string b ",\"demand\":";
  buf_add_int_list b (Cset.elements r.demand);
  Buffer.add_char b '}'

let request_line r =
  let b = Buffer.create 64 in
  Buffer.add_char b '{';
  buf_add_request_fields b r;
  Buffer.contents b

let request_to_buffer ~index b r =
  Buffer.add_string b "{\"index\":";
  Numfmt.add_int b index;
  Buffer.add_char b ',';
  buf_add_request_fields b r

let request_to_json ~index r =
  let b = Buffer.create 64 in
  request_to_buffer ~index b r;
  Buffer.contents b

let parse_wal_line ~n_sites ~n_commodities line =
  let c = { line; pos = 0; index = -1 } in
  match scan_request ~n_sites ~n_commodities c with
  | Some r when c.index >= 0 -> Ok (c.index, r)
  | _ -> (
      match Minijson.of_string line with
      | exception Minijson.Parse_error msg -> Error ("bad JSON: " ^ msg)
      | json -> (
          match int_member "index" json with
          | None -> Error {|missing or non-integer "index"|}
          | Some index ->
              Result.map
                (fun r -> (index, r))
                (request_of_json ~n_sites ~n_commodities json)))

(* ---------- session-open handshake ---------- *)

type hello = {
  h_session : string;
  h_algo : string option;
  h_seed : int option;
  h_snapshot_every : int option;
  h_checkpoint : bool option;
  h_resume : bool;
}

(* Session ids name checkpoint subdirectories, so they are confined to a
   filesystem- and JSON-safe alphabet; in particular a leading dot (and
   hence "." / "..") is rejected. The server re-checks this rule when it
   claims the id. *)
let valid_session_id s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-' -> true
         | _ -> false)
       s

let invalid_session_id s =
  Printf.sprintf
    "invalid session id %S (1-64 chars of [A-Za-z0-9._-], starting \
     alphanumeric)"
    s

let bool_member key json =
  match Minijson.member key json with
  | Some (Minijson.Bool b) -> Ok (Some b)
  | None | Some Minijson.Null -> Ok None
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" key)

let opt_int_member key json =
  match Minijson.member key json with
  | None | Some Minijson.Null -> Ok None
  | Some j -> (
      match Minijson.to_int j with
      | Some n -> Ok (Some n)
      | None -> Error (Printf.sprintf "field %S must be an integer" key))

let parse_hello line =
  let ( let* ) = Result.bind in
  match Minijson.of_string line with
  | exception Minijson.Parse_error msg -> Error ("bad JSON: " ^ msg)
  | json ->
      let* session =
        match Option.bind (Minijson.member "session" json) Minijson.to_string with
        | Some s when valid_session_id s -> Ok s
        | Some s -> Error (invalid_session_id s)
        | None -> Error {|missing or non-string "session"|}
      in
      let* algo =
        match Minijson.member "algo" json with
        | None | Some Minijson.Null -> Ok None
        | Some (Minijson.Str s) -> Ok (Some s)
        | Some _ -> Error {|field "algo" must be a string|}
      in
      let* seed = opt_int_member "seed" json in
      let* snapshot_every = opt_int_member "snapshot_every" json in
      let* () =
        match snapshot_every with
        | Some n when n < 1 -> Error {|field "snapshot_every" must be >= 1|}
        | _ -> Ok ()
      in
      let* checkpoint = bool_member "checkpoint" json in
      let* resume = bool_member "resume" json in
      Ok
        {
          h_session = session;
          h_algo = algo;
          h_seed = seed;
          h_snapshot_every = snapshot_every;
          h_checkpoint = checkpoint;
          h_resume = Option.value resume ~default:false;
        }

let hello_to_json h =
  let b = Buffer.create 96 in
  Buffer.add_string b "{\"session\":";
  buf_add_json_string b h.h_session;
  (match h.h_algo with
  | None -> ()
  | Some a ->
      Buffer.add_string b ",\"algo\":";
      buf_add_json_string b a);
  (match h.h_seed with
  | None -> ()
  | Some s ->
      Buffer.add_string b ",\"seed\":";
      Numfmt.add_int b s);
  (match h.h_snapshot_every with
  | None -> ()
  | Some n ->
      Buffer.add_string b ",\"snapshot_every\":";
      Numfmt.add_int b n);
  (match h.h_checkpoint with
  | None -> ()
  | Some c -> Buffer.add_string b (if c then ",\"checkpoint\":true" else ",\"checkpoint\":false"));
  if h.h_resume then Buffer.add_string b ",\"resume\":true";
  Buffer.add_char b '}';
  Buffer.contents b

type ack = {
  a_session : string;
  a_algo : string;
  a_served : int;
  a_reemitted : int;
}

let ack_to_json a =
  let b = Buffer.create 96 in
  Buffer.add_string b "{\"ok\":true,\"session\":";
  buf_add_json_string b a.a_session;
  Buffer.add_string b ",\"algo\":";
  buf_add_json_string b a.a_algo;
  Buffer.add_string b ",\"served\":";
  Numfmt.add_int b a.a_served;
  Buffer.add_string b ",\"reemitted\":";
  Numfmt.add_int b a.a_reemitted;
  Buffer.add_char b '}';
  Buffer.contents b

let error_to_json msg =
  let b = Buffer.create 64 in
  Buffer.add_string b "{\"ok\":false,\"error\":";
  buf_add_json_string b msg;
  Buffer.add_char b '}';
  Buffer.contents b

let done_to_json ~served ~total =
  let b = Buffer.create 64 in
  Buffer.add_string b "{\"done\":true,\"served\":";
  Numfmt.add_int b served;
  Buffer.add_string b ",\"total\":";
  Numfmt.add_g17 b total;
  Buffer.add_char b '}';
  Buffer.contents b

type server_line =
  | Ack of ack
  | Refused of string
  | Decision_line of int
  | Done of int * float

let parse_server_line line =
  match Minijson.of_string line with
  | exception Minijson.Parse_error msg -> Error ("bad JSON: " ^ msg)
  | json -> (
      match Minijson.member "ok" json with
      | Some (Minijson.Bool true) -> (
          let str key =
            Option.bind (Minijson.member key json) Minijson.to_string
          in
          match (str "session", str "algo", int_member "served" json,
                 int_member "reemitted" json)
          with
          | Some s, Some a, Some served, Some reemitted ->
              Ok (Ack { a_session = s; a_algo = a; a_served = served;
                        a_reemitted = reemitted })
          | _ -> Error "malformed ack")
      | Some (Minijson.Bool false) | Some Minijson.Null -> (
          match
            Option.bind (Minijson.member "error" json) Minijson.to_string
          with
          | Some e -> Ok (Refused e)
          | None -> Error "malformed refusal")
      | _ -> (
          match Minijson.member "done" json with
          | Some (Minijson.Bool true) -> (
              match
                ( int_member "served" json,
                  Option.bind (Minijson.member "total" json) Minijson.to_float )
              with
              | Some served, Some total -> Ok (Done (served, total))
              | _ -> Error "malformed done record")
          | _ -> (
              match
                (int_member "index" json,
                 Option.bind (Minijson.member "error" json) Minijson.to_string)
              with
              | Some i, _ -> Ok (Decision_line i)
              | None, Some e -> Ok (Refused e)
              | None, None -> Error "unrecognized server line")))

(* ---------- decisions ---------- *)

type decision = {
  index : int;
  site : int;
  demand : int list;
  service : Service.t;
  opened : Facility.t list;
  construction : float;
  assignment : float;
  total : float;
}

let buf_add_kind b (k : Facility.kind) =
  match k with
  | Facility.Small e ->
      Buffer.add_string b "\"small(";
      Numfmt.add_int b e;
      Buffer.add_string b ")\""
  | Facility.Large -> Buffer.add_string b "\"large\""
  | Facility.Custom s ->
      Buffer.add_string b "\"custom(";
      buf_add_ints b (Cset.elements s);
      Buffer.add_string b ")\""

let buf_add_facility b (f : Facility.t) =
  Buffer.add_string b "{\"id\":";
  Numfmt.add_int b f.id;
  Buffer.add_string b ",\"site\":";
  Numfmt.add_int b f.site;
  Buffer.add_string b ",\"kind\":";
  buf_add_kind b f.kind;
  Buffer.add_string b ",\"cost\":";
  Numfmt.add_g17 b f.cost;
  Buffer.add_char b '}'

let buf_add_service b (s : Service.t) =
  match s with
  | Service.To_single fid ->
      Buffer.add_string b "{\"kind\":\"single\",\"facility\":";
      Numfmt.add_int b fid;
      Buffer.add_char b '}'
  | Service.Per_commodity pairs ->
      Buffer.add_string b "{\"kind\":\"per_commodity\",\"pairs\":[";
      List.iteri
        (fun i (e, fid) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '[';
          Numfmt.add_int b e;
          Buffer.add_char b ',';
          Numfmt.add_int b fid;
          Buffer.add_char b ']')
        pairs;
      Buffer.add_string b "]}"

(* Append one decision record to a caller-owned buffer: the hot serving
   path reuses one buffer per connection/session instead of growing a
   fresh 256-byte one per decision. *)
let decision_to_buffer ?latency_s b (d : decision) =
  Buffer.add_string b "{\"index\":";
  Numfmt.add_int b d.index;
  Buffer.add_string b ",\"site\":";
  Numfmt.add_int b d.site;
  Buffer.add_string b ",\"demand\":";
  buf_add_int_list b d.demand;
  Buffer.add_string b ",\"service\":";
  buf_add_service b d.service;
  Buffer.add_string b ",\"opened\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      buf_add_facility b f)
    d.opened;
  Buffer.add_string b "],\"construction\":";
  Numfmt.add_g17 b d.construction;
  Buffer.add_string b ",\"assignment\":";
  Numfmt.add_g17 b d.assignment;
  Buffer.add_string b ",\"total\":";
  Numfmt.add_g17 b d.total;
  (match latency_s with
  | None -> ()
  | Some l ->
      Buffer.add_string b ",\"latency_s\":";
      Buffer.add_string b (Numfmt.format_float "%.6f" l));
  Buffer.add_char b '}'

let decision_to_json ?latency_s (d : decision) =
  let b = Buffer.create 256 in
  decision_to_buffer ?latency_s b d;
  Buffer.contents b
