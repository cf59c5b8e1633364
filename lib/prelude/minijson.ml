type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail "expected %c at offset %d, got %c" c st.pos c'
  | None -> fail "expected %c at offset %d, got end of input" c st.pos

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail "invalid literal at offset %d" st.pos

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail "unterminated string at offset %d" st.pos
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail "unterminated escape at offset %d" st.pos
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                (* Decode the 4-hex-digit escape; non-ASCII code points
                   come back as '?' — bench names are plain ASCII. *)
                if st.pos + 4 > String.length st.src then
                  fail "truncated \\u escape at offset %d" st.pos;
                let hex = String.sub st.src st.pos 4 in
                st.pos <- st.pos + 4;
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail "bad \\u escape %S" hex
                in
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else Buffer.add_char buf '?'
            | c -> fail "bad escape \\%c at offset %d" c st.pos);
            loop ())
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec run () =
    match peek st with
    | Some c when is_num_char c ->
        advance st;
        run ()
    | _ -> ()
  in
  run ();
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail "invalid number %S at offset %d" s start

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input at offset %d" st.pos
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws st;
          let key = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              members ((key, v) :: acc)
          | Some '}' ->
              advance st;
              List.rev ((key, v) :: acc)
          | _ -> fail "expected , or } at offset %d" st.pos
        in
        Obj (members [])
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              items (v :: acc)
          | Some ']' ->
              advance st;
              List.rev (v :: acc)
          | _ -> fail "expected , or ] at offset %d" st.pos
        in
        List (items [])
      end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> Num (parse_number st)

let of_string s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then
    fail "trailing garbage at offset %d" st.pos;
  v

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List items -> Some items | _ -> None

let to_float = function Num f -> Some f | _ -> None

(* Below 2^53 in magnitude every integer is a double exactly, so the
   number read is the number written. *)
let to_int = function
  | Num f when Float.is_integer f && Float.abs f < 0x1p53 ->
      Some (int_of_float f)
  | _ -> None

let to_string = function Str s -> Some s | _ -> None
