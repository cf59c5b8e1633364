(* Concurrent multi-session front end over the single-session serving
   core: [workers] independent [Unix.select] loops, one per domain, race
   on one nonblocking listener. The loop that accepts a connection owns
   it for its whole life, so a session's lines are read, stepped and
   answered on one domain, in arrival order, with no queue or lock in
   between. Sessions open through [Session.start] and step through
   [Session.handle_batch], the code stdin-mode [omflp serve] runs, so a
   session's durable decision log is byte for byte what stdin mode
   writes for the same stream.

   A turn of a loop: [select] on the listener and the connections;
   accept one connection; read one [chunk] from each readable
   connection; step up to [batch] complete lines per connection, the
   hello first; write each connection's replies with one [write],
   keeping what the socket does not take until it is writable.
   Backpressure has no knob: a connection is read only while it holds
   no unstepped complete line and no unsent reply, and stepped only
   while it holds no unsent reply, so it buffers at most one read
   chunk, one line of at most [max_line] bytes and one batch of
   replies — a client that stops reading stalls only its own session.
   The loop blocks in [select] unless some connection has a line it can
   step.

   [start] spawns [workers] loop domains and returns; [run] runs one
   loop on the calling domain and spawns [workers - 1], so
   [--workers 1] is a one-domain process. [select] takes descriptors
   below FD_SETSIZE only and fails the whole call otherwise, so each
   accepted descriptor is probed and one past the cap is refused by
   name; [--max-sessions] stays the server-wide admission limit.

   Durability is the single-session layer's: each session gets its own
   checkpoint directory under the server's checkpoint root, with the
   same WAL-before-step / decision-after ordering, so SIGKILLing the
   whole server loses nothing a per-session resume cannot replay. *)

open Omflp_instance
open Omflp_core
open Omflp_obs

type config = {
  listen : string;
  algo : string;  (* default; a hello may name another registered one *)
  env : Instance.t;  (* metric + cost; its request list is ignored *)
  instance_md5 : string;
  checkpoint_root : string option;
  snapshot_every : int;
  seed : int;
  max_sessions : int;
  workers : int;
}

type t = {
  cfg : config;
  n_sites : int;
  n_commodities : int;
  addr : Listener.addr;
  lfd : Unix.file_descr;  (* nonblocking; every loop selects on it *)
  m : Mutex.t;  (* guards [live], the only state the loops share *)
  live : (string, unit) Hashtbl.t;  (* connected session ids *)
  stopping : bool Atomic.t;
  mutable loops : unit Domain.t list;
}

type phase =
  | Hello  (* the next line is the session-open handshake *)
  | Serving of string * Session.t  (* session id, session *)
  | Closing  (* finalized: the socket closes once the replies are out *)

type conn = {
  fd : Unix.file_descr;
  mutable ib : Bytes.t;  (* input; bytes [lo, hi) are not yet stepped *)
  mutable lo : int;
  mutable scan : int;  (* bytes [lo, scan) hold no newline *)
  mutable hi : int;
  mutable eof : bool;  (* the peer sent its last byte *)
  ob : Buffer.t;  (* replies not yet written *)
  mutable phase : phase;
  mutable line_no : int;  (* request lines after the hello *)
}

let accepted_c = Metrics.counter "server.accepted"
let sessions_c = Metrics.counter "server.sessions"
let rejected_c = Metrics.counter "server.rejected"
let request_errors_c = Metrics.counter "server.request_errors"
let latency_h = Metrics.histogram "server.latency_s"

let batch = 32  (* lines stepped per connection per turn *)
let chunk = 65536  (* bytes read per connection per turn *)
let max_line = 65536  (* longest line a connection may send *)
let fd_setsize = 1024  (* select's descriptor bound *)
let accept_rest_s = 0.1  (* listener rest after a failed accept *)

let fail fmt = Printf.ksprintf failwith fmt

let message = function Failure m | Sys_error m -> m | e -> Printexc.to_string e

(* Errors that leave a nonblocking socket as it was: try again later. *)
let transient = function
  | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR -> true
  | _ -> false

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
  else if not (Sys.is_directory dir) then
    fail "Server: checkpoint root %s exists and is not a directory" dir

(* ---------- session opening ---------- *)

(* Admission control under the registry mutex: the id is claimed before
   the (slow, IO-heavy) session construction, so two connections racing
   on one session id cannot both open its checkpoint directory. Session
   ids become checkpoint directory names under the root, so the id rule
   is re-checked here, at that boundary, whoever built the hello. *)
let claim t (h : Wire.hello) =
  Mutex.protect t.m (fun () ->
      if not (Wire.valid_session_id h.Wire.h_session) then
        Error (Wire.invalid_session_id h.Wire.h_session)
      else if Atomic.get t.stopping then Error "server is shutting down"
      else if Hashtbl.mem t.live h.Wire.h_session then
        Error
          (Printf.sprintf "session %S is already connected" h.Wire.h_session)
      else if Hashtbl.length t.live >= t.cfg.max_sessions then
        Error
          (Printf.sprintf "server is at --max-sessions capacity (%d)"
             t.cfg.max_sessions)
      else begin
        Hashtbl.add t.live h.Wire.h_session ();
        Ok ()
      end)

let unregister t id = Mutex.protect t.m (fun () -> Hashtbl.remove t.live id)

(* Only the server-specific part: hello defaults and the per-session
   directory [root/ID]; [Session.start] opens the session as stdin mode
   does. *)
let open_session t (h : Wire.hello) =
  let algo_name = Option.value h.Wire.h_algo ~default:t.cfg.algo in
  let algo =
    match Registry.find algo_name with
    | Ok a -> a
    | Error e -> fail "%s" (Registry.unknown_algo_message e)
  in
  let checkpoint =
    match (h.Wire.h_checkpoint, t.cfg.checkpoint_root) with
    | Some false, _ | None, None -> None
    | _, Some root ->
        Some
          ( Filename.concat root h.Wire.h_session,
            Option.value h.Wire.h_snapshot_every
              ~default:t.cfg.snapshot_every )
    | Some true, None ->
        fail
          "handshake requests a checkpoint but the server has no \
           --checkpoint root"
  in
  let session, reemit =
    Session.start ~algo
      ~seed:(Option.value h.Wire.h_seed ~default:t.cfg.seed)
      ~instance_md5:t.cfg.instance_md5 ~checkpoint ~resume:h.Wire.h_resume
      (Instance.env t.cfg.env)
  in
  (session, algo_name, reemit)

(* ---------- one connection ---------- *)

let reply c line =
  Buffer.add_string c.ob line;
  Buffer.add_char c.ob '\n'

(* Teardown, once per connection: close the session (final snapshot),
   send the done record when the stream ended normally, and release the
   session id. *)
let finalize t c ~ok =
  (match c.phase with
  | Serving (id, s) ->
      (try Session.close s
       with e ->
         Printf.eprintf "omflp serve: session %s: close: %s\n%!" id
           (message e));
      if ok then begin
        let _, _, total = Session.running_costs s in
        reply c (Wire.done_to_json ~served:(Session.count s) ~total)
      end;
      unregister t id
  | Hello | Closing -> ());
  c.phase <- Closing

(* A refused handshake, or a fatal session error (checkpoint IO,
   algorithm invariant, an overlong line): tell the client and finalize
   without a done record. The WAL-before-decision write order makes a
   failed step exactly the crash-window shape a later resume replays. *)
let abort t c msg =
  (match c.phase with
  | Serving (id, _) -> Printf.eprintf "omflp serve: session %s: %s\n%!" id msg
  | Hello | Closing -> Metrics.incr rejected_c);
  reply c (Wire.error_to_json msg);
  finalize t c ~ok:false

(* Advances [scan] to the next newline: true when a complete line is
   buffered. *)
let has_line c =
  while c.scan < c.hi && Bytes.unsafe_get c.ib c.scan <> '\n' do
    c.scan <- c.scan + 1
  done;
  c.scan < c.hi

(* Something to step: a complete line, the end of input, or a line
   already past the bound — and no unsent reply ahead of it. *)
let ready c =
  match c.phase with
  | Closing -> false
  | Hello | Serving _ ->
      Buffer.length c.ob = 0
      && (has_line c || c.eof || c.hi - c.lo > max_line)

(* The next complete line; after end of input, an unterminated last
   line too. *)
let next_line c =
  let complete = has_line c in
  if c.scan - c.lo > max_line then fail "line longer than %d bytes" max_line;
  if complete || (c.eof && c.lo < c.hi) then begin
    let line = Bytes.sub_string c.ib c.lo (c.scan - c.lo) in
    c.lo <- min c.hi (c.scan + 1);
    c.scan <- c.lo;
    Some line
  end
  else None

let hello t c line =
  match Wire.parse_hello line with
  | Error e -> abort t c ("bad handshake: " ^ e)
  | Ok h -> (
      match claim t h with
      | Error e -> abort t c e
      | Ok () ->
          let id = h.Wire.h_session in
          let session, algo_name, reemit =
            try open_session t h
            with e ->
              unregister t id;
              raise e
          in
          Metrics.incr sessions_c;
          c.phase <- Serving (id, session);
          reply c
            (Wire.ack_to_json
               {
                 Wire.a_session = id;
                 a_algo = algo_name;
                 a_served = Session.count session;
                 a_reemitted = List.length reemit;
               });
          List.iter (fun d -> reply c (Wire.decision_to_json d)) reemit)

let answer c s reqs =
  let t0 = Metrics.now () in
  let ds = Session.handle_batch s reqs in
  let latency_s = (Metrics.now () -. t0) /. float_of_int (Array.length ds) in
  Array.iter
    (fun d ->
      Metrics.observe latency_h latency_s;
      Wire.decision_to_buffer ~latency_s c.ob d;
      Buffer.add_char c.ob '\n')
    ds

(* Steps up to [batch] lines in order. Consecutive requests go to the
   session as one batch; a bad line's error is replied after the
   decisions of the lines before it. *)
let step_lines t c =
  (* [rs]: the requests gathered for the next batch, newest first. *)
  let flush rs =
    match (rs, c.phase) with
    | _ :: _, Serving (_, s) -> answer c s (Array.of_list (List.rev rs))
    | _ -> ()
  in
  let rec go k rs =
    match c.phase with
    | Closing -> ()
    | (Hello | Serving _) when k = 0 -> flush rs
    | phase -> (
        match (next_line c, phase) with
        | None, _ ->
            flush rs;
            if c.eof then finalize t c ~ok:true
        | Some line, Hello ->
            hello t c line;
            go (k - 1) rs
        | Some line, _ -> (
            c.line_no <- c.line_no + 1;
            if String.trim line = "" then go (k - 1) rs
            else
              match
                Wire.parse_request ~n_sites:t.n_sites
                  ~n_commodities:t.n_commodities line
              with
              | Ok r -> go (k - 1) (r :: rs)
              | Error e ->
                  flush rs;
                  Metrics.incr request_errors_c;
                  reply c
                    (Wire.error_to_json
                       (Printf.sprintf "line %d: %s" c.line_no e));
                  go (k - 1) []))
  in
  (* The one handler: whatever a step raises aborts only this session. *)
  try go batch [] with e -> abort t c (message e)

let read_chunk c rbuf =
  match Unix.read c.fd rbuf 0 chunk with
  | 0 -> c.eof <- true
  | n ->
      let len = c.hi - c.lo in
      if len + n > Bytes.length c.ib then begin
        let ib = Bytes.create (max (len + n) (2 * Bytes.length c.ib)) in
        Bytes.blit c.ib c.lo ib 0 len;
        c.ib <- ib
      end
      else Bytes.blit c.ib c.lo c.ib 0 len;
      Bytes.blit rbuf 0 c.ib len n;
      c.scan <- c.scan - c.lo;
      c.lo <- 0;
      c.hi <- len + n
  | exception Unix.Unix_error (e, _, _) when transient e -> ()
  | exception Unix.Unix_error _ -> c.eof <- true (* reset: end of input *)

(* One [write] of the pending replies; the socket keeps what it takes.
   A failed write means the peer is gone: finalize, dropping the
   replies and any unstepped lines (they are not in the WAL, so a
   resume asks for them again). *)
let write_out t c =
  let n = Buffer.length c.ob in
  if n > 0 then
    let s = Buffer.contents c.ob in
    match Unix.single_write_substring c.fd s 0 n with
    | k ->
        Buffer.clear c.ob;
        if k < n then Buffer.add_substring c.ob s k (n - k)
    | exception Unix.Unix_error (e, _, _) when transient e -> ()
    | exception Unix.Unix_error _ ->
        Buffer.clear c.ob;
        finalize t c ~ok:false

(* One turn for one connection; false once it is closed. *)
let serve_conn t rbuf r w c =
  if List.mem c.fd r then read_chunk c rbuf;
  let stepped = ready c in
  if stepped then step_lines t c;
  if stepped || List.mem c.fd w then write_out t c;
  match c.phase with
  | Closing when Buffer.length c.ob = 0 ->
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      false
  | Hello | Serving _ | Closing -> true

(* ---------- the loop ---------- *)

(* [select] fails the whole call, and so every session of the loop, for
   a descriptor at or above FD_SETSIZE: probe each accepted one and
   refuse it before it joins a loop. *)
let admit fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | _ ->
      Unix.set_nonblock fd;
      Some
        {
          fd;
          ib = Bytes.create 256;
          lo = 0;
          scan = 0;
          hi = 0;
          eof = false;
          ob = Buffer.create 1024;
          phase = Hello;
          line_no = 0;
        }
  | exception Unix.Unix_error (Unix.EINVAL, _, _) ->
      Metrics.incr rejected_c;
      let refusal =
        Wire.error_to_json
          (Printf.sprintf
             "server is at its descriptor limit (select handles descriptors \
              below %d)"
             fd_setsize)
        ^ "\n"
      in
      (try ignore (Unix.write_substring fd refusal 0 (String.length refusal))
       with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ());
      None

(* One accept per turn, so a burst spreads over the loops: the loop
   that took a connection serves its turn while an idle loop takes the
   next (on two loops, 8-session bursts mostly split 4/4; draining the
   backlog in one turn mostly split them 5/3). False when the listener
   must rest (EMFILE and the like: the backlog keeps the connection
   until a descriptor frees). *)
let accept_one t conns =
  match Unix.accept ~cloexec:true t.lfd with
  | fd, _ ->
      Metrics.incr accepted_c;
      Option.iter (fun c -> conns := c :: !conns) (admit fd);
      true
  | exception Unix.Unix_error (e, _, _)
    when transient e || e = Unix.ECONNABORTED ->
      true
  | exception Unix.Unix_error (e, _, _) ->
      if not (Atomic.get t.stopping) then
        Printf.eprintf "omflp serve: accept: %s\n%!" (Unix.error_message e);
      false

let serve_loop t =
  let rbuf = Bytes.create chunk in
  let conns = ref [] in
  let rest_until = ref 0.0 in
  let rec turn () =
    match (!conns, Atomic.get t.stopping) with
    | [], true -> ()
    | _, stopping ->
      let rest =
        if !rest_until = 0.0 then 0.0 else !rest_until -. Metrics.now ()
      in
      if rest <= 0.0 then rest_until := 0.0;
      let listening = (not stopping) && rest <= 0.0 in
      let rd, wr, busy =
        List.fold_left
          (fun (rd, wr, busy) c ->
            if Buffer.length c.ob > 0 then (rd, c.fd :: wr, busy)
            else if ready c then (rd, wr, true)
            else (c.fd :: rd, wr, busy))
          ((if listening then [ t.lfd ] else []), [], false)
          !conns
      in
      let timeout = if busy then 0.0 else if rest > 0.0 then rest else -1.0 in
      (match Unix.select rd wr [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | r, w, _ ->
          if listening && List.mem t.lfd r && not (accept_one t conns) then
            rest_until := Metrics.now () +. accept_rest_s;
          conns := List.filter (serve_conn t rbuf r w) !conns);
      turn ()
  in
  turn ()

(* ---------- lifecycle ---------- *)

let bind cfg =
  if cfg.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  if cfg.max_sessions < 1 then
    invalid_arg "Server.start: max_sessions must be >= 1";
  if cfg.snapshot_every < 1 then
    invalid_arg "Server.start: snapshot_every must be >= 1";
  (* A client that vanishes mid-write must surface as a write error on
     our side, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Option.iter mkdir_p cfg.checkpoint_root;
  let addr =
    match Listener.parse cfg.listen with
    | Ok a -> a
    | Error e -> fail "Server: bad --listen address: %s" e
  in
  let lfd = Listener.listen addr in
  Unix.set_nonblock lfd;
  {
    cfg;
    n_sites = Instance.n_sites cfg.env;
    n_commodities = Instance.n_commodities cfg.env;
    addr;
    lfd;
    m = Mutex.create ();
    live = Hashtbl.create 64;
    stopping = Atomic.make false;
    loops = [];
  }

let spawn_loops t n =
  t.loops <- List.init n (fun _ -> Domain.spawn (fun () -> serve_loop t))

let start cfg =
  let t = bind cfg in
  spawn_loops t cfg.workers;
  t

let listening t = Listener.pp_addr t.addr

let active_sessions t = Mutex.protect t.m (fun () -> Hashtbl.length t.live)

let stop t =
  Atomic.set t.stopping true;
  (* Shutting the listener down makes it readable, waking every loop. *)
  (try Unix.shutdown t.lfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  List.iter Domain.join t.loops;
  t.loops <- [];
  (try Unix.close t.lfd with Unix.Unix_error _ -> ());
  Listener.cleanup t.addr

let run cfg =
  let t = bind cfg in
  spawn_loops t (cfg.workers - 1);
  Printf.eprintf
    "omflp serve: listening on %s (%d event loop%s, max %d sessions)\n%!"
    (listening t) cfg.workers
    (if cfg.workers = 1 then "" else "s")
    cfg.max_sessions;
  (* Runs until the process is killed; durability is the checkpoint
     root's business, not a shutdown handler's. *)
  serve_loop t
