(* The server under test as a child process: `omflp serve --listen` with
   one worker domain, pinned to one CPU (the client runs on another, so
   one core serves and one drives). Every spawn is measured from fork to
   the ack of a throwaway, non-checkpointed handshake, in wall-clock time
   and in the server's CPU time; the median CPU time is setup_s. Every
   spawned pid is remembered so an exiting benchmark can kill and reap
   all of them. *)

type t = { pid : int; setup_ns : int; setup_cpu_ns : int }

let live = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill t =
  reap t.pid;
  live := List.filter (fun p -> p <> t.pid) !live

let kill_all () =
  List.iter reap !live;
  live := []

let fail fmt = Printf.ksprintf failwith fmt

let log_tail path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s ->
      let n = String.length s in
      if n <= 2000 then s else String.sub s (n - 2000) 2000
  | exception Sys_error _ -> ""

(* Connect, retrying while the server is still starting (no socket file
   yet, or not listening). Retries without sleeping, so the client's own
   timer wake-ups stay out of setup_s. Gives up at [deadline] or when the
   child has exited. *)
let rec connect_retry ~pid ~sock ~deadline =
  match Omflp_serve.Listener.connect sock with
  | fd -> fd
  | exception Failure msg ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> fail "server exited before listening (%s)" msg);
      if Clock.now_ns () > deadline then fail "server not listening: %s" msg;
      connect_retry ~pid ~sock ~deadline

let read_line_blocking fd =
  let b = Buffer.create 128 and c = Bytes.create 1 in
  let rec go () =
    match Unix.read fd c 0 1 with
    | 0 -> Buffer.contents b
    | _ when Bytes.get c 0 = '\n' -> Buffer.contents b
    | _ ->
        Buffer.add_char b (Bytes.get c 0);
        go ()
  in
  go ()

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

(* A fresh, non-checkpointed handshake: hello out, ack back, then a
   half-close and a drain to EOF so the server finalizes the session. *)
let throwaway_session fd id =
  write_all fd
    (Omflp_serve.Wire.hello_to_json
       {
         Omflp_serve.Wire.h_session = id;
         h_algo = None;
         h_seed = None;
         h_snapshot_every = None;
         h_checkpoint = Some false;
         h_resume = false;
       }
    ^ "\n");
  let ack = read_line_blocking fd in
  if String.length ack < 10 || String.sub ack 0 10 <> "{\"ok\":true" then
    fail "setup handshake refused: %s" ack;
  fun () ->
    Unix.shutdown fd Unix.SHUTDOWN_SEND;
    while read_line_blocking fd <> "" do
      ()
    done;
    Unix.close fd

(* CPU time the server has used so far, in ns: utime + stime of
   /proc/<pid>/stat, which cover every thread, exited ones included, in
   clock ticks of 10 ms. The kernel leaves out of them the time the host
   took the virtual CPU away (steal), so a slow phase of a shared host
   moves these numbers far less than it moves wall-clock time. *)
let cpu_ns t =
  let s =
    In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" t.pid)
      In_channel.input_all
  in
  let after = String.rindex s ')' + 2 in
  match String.split_on_char ' ' (String.sub s after (String.length s - after)) with
  | _state :: f -> (
      (* fields 14 and 15 of the line; [f] starts at field 4 *)
      match List.filteri (fun i _ -> i = 10 || i = 11) f with
      | [ utime; stime ] -> (int_of_string utime + int_of_string stime) * 10_000_000
      | _ -> fail "short /proc/%d/stat" t.pid)
  | [] -> fail "empty /proc/%d/stat" t.pid

(* Per-thread CPU time of a live process's threads, in ns, from
   /proc/<pid>/task/<tid>/schedstat (nanosecond resolution, steal left
   out as above). *)
let thread_cpu pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.to_list (try Sys.readdir dir with Sys_error _ -> [||])
  |> List.filter_map (fun tid ->
         match
           In_channel.with_open_bin
             (Printf.sprintf "%s/%s/schedstat" dir tid)
             In_channel.input_all
         with
         | s -> Scanf.sscanf_opt s "%d" (fun ns -> (tid, ns))
         | exception Sys_error _ -> None)

(* Starts a meter of the server's CPU; the function it returns reads the
   CPU time its threads have used since, in ns. Threads that start or
   exit in between are left out. *)
let cpu_meter t () =
  let a = thread_cpu t.pid in
  fun () ->
    List.fold_left
      (fun acc (tid, ns) ->
        match List.assoc_opt tid a with Some ns0 -> acc + ns - ns0 | None -> acc)
      0 (thread_cpu t.pid)

let spawn ~exe ~cpu ~env_file ~sock ~checkpoint_root ~log ~id =
  let args =
    [ exe; "serve"; "--listen"; sock; "--env"; env_file; "--workers"; "1";
      "--algo"; Workload.algo_name ]
    @ (match checkpoint_root with
      | None -> []
      | Some root ->
          [ "--checkpoint"; root; "--snapshot-every";
            string_of_int Workload.snapshot_every ])
  in
  let logfd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let t0 = Clock.now_ns () in
  let pid =
    Unix.create_process "taskset"
      (Array.of_list ("taskset" :: "-c" :: string_of_int cpu :: args))
      Unix.stdin logfd logfd
  in
  Unix.close logfd;
  live := pid :: !live;
  let fd =
    try connect_retry ~pid ~sock ~deadline:(t0 + 20_000_000_000)
    with Failure msg -> fail "%s\n--- server log ---\n%s" msg (log_tail log)
  in
  let finish = throwaway_session fd id in
  let setup_ns = Clock.now_ns () - t0 in
  let setup_cpu_ns = List.fold_left (fun acc (_, ns) -> acc + ns) 0 (thread_cpu pid) in
  finish ();
  { pid; setup_ns; setup_cpu_ns }

(* Peak resident set (VmHWM) of the live server, in MiB. *)
let peak_rss_mib t =
  let path = Printf.sprintf "/proc/%d/status" t.pid in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> fail "no VmHWM in %s" path
        | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

(* The CPUs this process may run on (Cpus_allowed_list of
   /proc/self/status, e.g. "0-1" or "0,2-3"). *)
let allowed_cpus () =
  let line =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> fail "no Cpus_allowed_list in /proc/self/status"
          | Some l -> (
              match String.split_on_char ':' l with
              | [ "Cpus_allowed_list"; v ] -> String.trim v
              | _ -> go ())
        in
        go ())
  in
  String.split_on_char ',' line
  |> List.concat_map (fun r ->
         match List.map int_of_string (String.split_on_char '-' r) with
         | [ a ] -> [ a ]
         | [ a; b ] -> List.init (b - a + 1) (fun i -> a + i)
         | _ -> fail "bad Cpus_allowed_list %S" line)

(* Pins every thread of process [pid] to [cpu]. *)
let pin ~pid cpu =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let child =
    Unix.create_process "taskset"
      [| "taskset"; "-a"; "-p"; "-c"; string_of_int cpu; string_of_int pid |]
      Unix.stdin null Unix.stderr
  in
  Unix.close null;
  match Unix.waitpid [] child with
  | _, Unix.WEXITED 0 -> ()
  | _ -> fail "taskset could not pin process %d to CPU %d" pid cpu
