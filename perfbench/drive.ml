(* The load generator: one thread, one [select] loop, at most
   [Workload.connections] sockets open at a time. A session is one
   connection (hello, ack, requests, half-close, done record). Decision
   lines are reduced to their canonical form (the server's trailing
   latency_s field dropped) and kept per session, so they can be compared
   byte for byte with an in-process replay afterwards. *)

open Omflp_serve

type session = {
  id : string;
  index : int;  (* stream index *)
  lines : string array;  (* the whole stream's request lines *)
  first : int;  (* first request index sent on this connection *)
  last : int;  (* one past the last *)
  half_close : bool;  (* false: park at [last] without closing (crash probe) *)
  resume : bool;
  stamp : int array;  (* per request: send time (closed) or due time (open) *)
  canon : Buffer.t;  (* canonical decision lines received, '\n'-terminated *)
  mutable sent : int;
  mutable received : int;
  mutable hello_ns : int;
  mutable done_line : string;
  mutable error : string option;
}

let session ~id ~index ~lines ~first ~last ~half_close ~resume =
  {
    id;
    index;
    lines;
    first;
    last;
    half_close;
    resume;
    stamp = Array.make (Array.length lines) 0;
    canon = Buffer.create (256 * (last - first));
    sent = first;
    received = first;
    hello_ns = 0;
    done_line = "";
    error = None;
  }

type state = Await_ack | Reemit of int | Streaming | Parked | Closed

type conn = {
  fd : Unix.file_descr;
  s : session;
  mutable state : state;
  mutable carry : string;  (* partial line from the previous read *)
  pending : Buffer.t;  (* output the socket did not take yet *)
  mutable shutdown_wanted : bool;
}

type stats = {
  opens : Clock.samples;  (* fresh sessions: hello -> ack, ns *)
  resumes : Clock.samples;  (* resumed sessions: hello -> ack + re-emits *)
  latency : Clock.samples;  (* open loop: due -> decision received, ns *)
  lateness : Clock.samples;  (* open loop: due -> request written, ns *)
  mutable max_backlog : int;
  mutable decisions : int;
  mutable finished : session list;
}

let stats () =
  {
    opens = Clock.samples ();
    resumes = Clock.samples ();
    latency = Clock.samples ();
    lateness = Clock.samples ();
    max_backlog = 0;
    decisions = 0;
    finished = [];
  }

type hooks = {
  on_ready : conn -> unit;  (* ack (and re-emitted lines) received *)
  on_decision : conn -> int -> int -> unit;  (* request index, receive ns *)
}

let latency_field = ",\"latency_s\":"

let close_fd c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let finish st c =
  if c.state <> Closed then begin
    c.state <- Closed;
    close_fd c;
    st.finished <- c.s :: st.finished
  end

let fail_conn st c msg =
  if c.s.error = None then c.s.error <- Some msg;
  finish st c

let try_shutdown c =
  if c.shutdown_wanted && Buffer.length c.pending = 0 then begin
    c.shutdown_wanted <- false;
    try Unix.shutdown c.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ()
  end

let write_some st c s off len =
  match Unix.single_write_substring c.fd s off len with
  | n -> n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
  | exception Unix.Unix_error (e, _, _) ->
      fail_conn st c ("write: " ^ Unix.error_message e);
      len

let send st c line =
  if Buffer.length c.pending > 0 then begin
    Buffer.add_string c.pending line;
    Buffer.add_char c.pending '\n'
  end
  else begin
    let msg = line ^ "\n" in
    let len = String.length msg in
    let n = write_some st c msg 0 len in
    if n < len then Buffer.add_substring c.pending msg n (len - n)
  end

let flush_pending st c =
  let s = Buffer.contents c.pending in
  let n = write_some st c s 0 (String.length s) in
  Buffer.clear c.pending;
  if n < String.length s then
    Buffer.add_substring c.pending s n (String.length s - n);
  try_shutdown c

(* Send the next request of the session, stamped with [stamp_ns]. *)
let send_next st c ~stamp_ns =
  let s = c.s in
  s.stamp.(s.sent) <- stamp_ns;
  send st c s.lines.(s.sent);
  s.sent <- s.sent + 1;
  if s.sent = s.last && s.half_close then begin
    c.shutdown_wanted <- true;
    try_shutdown c
  end

let send_hello st c =
  let s = c.s in
  s.hello_ns <- Clock.now_ns ();
  send st c
    (Wire.hello_to_json
       {
         Wire.h_session = s.id;
         h_algo = Some Workload.algo_name;
         h_seed = Some 1;
         h_snapshot_every = None;
         h_checkpoint = None;
         h_resume = s.resume;
       })

let connect_only ~sock s =
  let fd = Listener.connect sock in
  Unix.set_nonblock fd;
  {
    fd;
    s;
    state = Await_ack;
    carry = "";
    pending = Buffer.create 256;
    shutdown_wanted = false;
  }

let connect st ~sock s =
  let c = connect_only ~sock s in
  send_hello st c;
  c

(* Hello sent -> ack received, plus every re-emitted line on a resume. *)
let ready st hooks c now =
  let s = c.s in
  Clock.add (if s.resume then st.resumes else st.opens) (now - s.hello_ns);
  c.state <- Streaming;
  hooks.on_ready c

let on_line st hooks c line now =
  let s = c.s in
  match c.state with
  | Await_ack -> (
      match Wire.parse_server_line line with
      | Ok (Wire.Ack a) when a.Wire.a_served <> s.first ->
          fail_conn st c
            (Printf.sprintf "ack says %d served, expected %d" a.Wire.a_served
               s.first)
      | Ok (Wire.Ack a) ->
          if a.Wire.a_reemitted > 0 then c.state <- Reemit a.Wire.a_reemitted
          else ready st hooks c now
      | Ok (Wire.Refused e) -> fail_conn st c ("refused: " ^ e)
      | Ok _ | Error _ -> fail_conn st c ("expected an ack, got " ^ line))
  | Reemit k -> if k = 1 then ready st hooks c now else c.state <- Reemit (k - 1)
  | Streaming ->
      if String.starts_with ~prefix:"{\"index\":" line && s.received < s.last
      then begin
        match String.rindex_opt line ',' with
        | Some i
          when String.length line - i > String.length latency_field
               && String.sub line i (String.length latency_field)
                  = latency_field ->
            Buffer.add_substring s.canon line 0 i;
            Buffer.add_string s.canon "}\n";
            let idx = s.received in
            s.received <- idx + 1;
            st.decisions <- st.decisions + 1;
            hooks.on_decision c idx now;
            if s.received = s.last && not s.half_close then c.state <- Parked
        | _ -> fail_conn st c ("decision line without latency_s: " ^ line)
      end
      else if String.starts_with ~prefix:"{\"done\":" line && s.received = s.last
      then begin
        s.done_line <- line;
        finish st c
      end
      else fail_conn st c ("unexpected line: " ^ line)
  | Parked | Closed -> ()

let buf = Bytes.create 65536

let read_conn st hooks c =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) ->
      fail_conn st c ("read: " ^ Unix.error_message e)
  | 0 -> fail_conn st c "server closed the connection"
  | n ->
      let now = Clock.now_ns () in
      let start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.get buf i = '\n' then begin
          let piece = Bytes.sub_string buf !start (i - !start) in
          let line = if c.carry = "" then piece else c.carry ^ piece in
          c.carry <- "";
          start := i + 1;
          on_line st hooks c line now
        end
      done;
      if !start < n then
        c.carry <- c.carry ^ Bytes.sub_string buf !start (n - !start)

let active c = match c.state with Parked | Closed -> false | _ -> true

(* One [select] round over the active connections. *)
let pump st hooks conns ~timeout_s =
  let live = List.filter active conns in
  let rd = List.map (fun c -> c.fd) live in
  let wr =
    List.filter_map
      (fun c -> if Buffer.length c.pending > 0 then Some c.fd else None)
      live
  in
  match Unix.select rd wr [] timeout_s with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | r, w, _ ->
      List.iter
        (fun c ->
          if List.mem c.fd w && active c then flush_pending st c;
          if List.mem c.fd r && active c then read_conn st hooks c)
        live

let check_deadline ~hard_ns what =
  if Clock.now_ns () > hard_ns then failwith (what ^ ": timed out")

(* ---------- closed loop ---------- *)

let fill st c =
  let s = c.s in
  while
    c.state = Streaming && s.sent < s.last
    && s.sent - s.received < Workload.window
  do
    send_next st c ~stamp_ns:(Clock.now_ns ())
  done

let closed_hooks st =
  { on_ready = fill st; on_decision = (fun c _ _ -> fill st c) }

(* Keep every connection slot busy with the next session from [next]
   until it runs dry and all slots finish (or park). Returns the parked
   connections. *)
let closed_loop st ~slots:n ~sock ~hard_ns ~(next : unit -> session option) =
  let hooks = closed_hooks st in
  let slots = Array.make n None in
  let parked = ref [] in
  let exhausted = ref false in
  let refill () =
    Array.iteri
      (fun i slot ->
        let free =
          match slot with
          | None -> true
          | Some c when c.state = Parked ->
              parked := c :: !parked;
              true
          | Some c -> c.state = Closed
        in
        if free then begin
          slots.(i) <- None;
          if not !exhausted then
            match next () with
            | Some s -> slots.(i) <- Some (connect st ~sock s)
            | None -> exhausted := true
        end)
      slots
  in
  refill ();
  while Array.exists Option.is_some slots do
    check_deadline ~hard_ns "closed loop";
    pump st hooks (List.filter_map Fun.id (Array.to_list slots)) ~timeout_s:0.05;
    refill ()
  done;
  !parked

(* ---------- open loop ---------- *)

(* Request k of the schedule is due at [t0 + k * period]. It is written
   when due to the active connection; when that connection's session has
   sent its last request, the other connection (whose session opened
   meanwhile) becomes active, so a session's turnover (half-close, done
   record, next connect and hello) overlaps the other session's traffic.
   A request that finds no open session waits, which shows as lateness;
   every latency is timed from the due time, so a stall is charged to
   every request it delays. Sessions are served in array order. [tick ()]
   runs whenever [st]'s decision count reaches a multiple of [every]. *)
let open_loop st ~sock ~hard_ns ~rate_rps ~tick:(every, tick)
    ~(sessions : session array) =
  let n = Workload.connections in
  let period = 1e9 /. rate_rps in
  let total = Array.fold_left (fun a s -> a + s.last - s.first) 0 sessions in
  let hooks =
    {
      on_ready = (fun _ -> ());
      on_decision =
        (fun c idx now ->
          Clock.add st.latency (now - c.s.stamp.(idx));
          if st.decisions mod every = 0 then tick ());
    }
  in
  let next = ref 0 in
  let take () =
    if !next >= Array.length sessions then None
    else begin
      let s = sessions.(!next) in
      incr next;
      Some (connect st ~sock s)
    end
  in
  let slots = Array.init n (fun _ -> take ()) in
  let live () = List.filter active (List.filter_map Fun.id (Array.to_list slots)) in
  (* The first sessions are open before the clock starts. *)
  while List.exists (fun c -> c.state = Await_ack) (live ()) do
    check_deadline ~hard_ns "open loop handshake";
    pump st hooks (live ()) ~timeout_s:0.05
  done;
  let t0 = Clock.now_ns () in
  let k = ref 0 and active_slot = ref 0 in
  let sendable i =
    match slots.(i) with
    | Some c -> c.state = Streaming && c.s.sent < c.s.last
    | None -> false
  in
  while !k < total || Array.exists Option.is_some slots do
    check_deadline ~hard_ns "open loop";
    Array.iteri
      (fun i c ->
        match c with
        | Some c when c.state = Closed -> slots.(i) <- take ()
        | _ -> ())
      slots;
    let wake = ref (Clock.now_ns () + 50_000_000) in
    let rec go () =
      if !k < total then begin
        let d = t0 + int_of_float (float_of_int !k *. period) in
        let now = Clock.now_ns () in
        if d > now then wake := d
        else begin
          if not (sendable !active_slot) then
            active_slot := (!active_slot + 1) mod n;
          match slots.(!active_slot) with
          | Some c when sendable !active_slot ->
              Clock.add st.lateness (now - d);
              send_next st c ~stamp_ns:d;
              incr k;
              go ()
          | _ -> ()
        end
      end
    in
    go ();
    let now = Clock.now_ns () in
    let due = min total (1 + int_of_float (float_of_int (now - t0) /. period)) in
    st.max_backlog <- max st.max_backlog (due - !k);
    pump st hooks (live ()) ~timeout_s:(Float.max 0.0 (Clock.s_of_ns (!wake - now)))
  done;
  Clock.s_of_ns (Clock.now_ns () - t0)

(* ---------- session-open probe ---------- *)

(* Sessions opened (or resumed) one at a time on an idle server. The
   hello goes out once the server has had time to accept and park the
   connection's reader thread, and the client polls instead of sleeping
   until the ack, so hello -> ack covers the server's handshake work
   (Session.create, or Checkpoint.open_resume + Session.resume) rather
   than thread start-up and client wake-up. [settle ()] runs between the
   connect and the hello (by default a 2 ms sleep); the function it
   returns runs once the ack and every re-emitted line are in. The
   session then runs to its done record as in the closed loop. *)
let open_probe
    ?(settle = fun () -> Unix.sleepf 0.002; fun () -> ()) st ~sock ~hard_ns
    (sessions : session list) =
  let hooks = closed_hooks st in
  List.iter
    (fun s ->
      let c = connect_only ~sock s in
      let handshake_done = settle () in
      send_hello st c;
      while (match c.state with Await_ack | Reemit _ -> true | _ -> false) do
        check_deadline ~hard_ns "open probe";
        pump st hooks [ c ] ~timeout_s:0.0
      done;
      if c.state <> Closed then handshake_done ();
      while active c do
        check_deadline ~hard_ns "open probe";
        pump st hooks [ c ] ~timeout_s:0.05
      done)
    sessions
