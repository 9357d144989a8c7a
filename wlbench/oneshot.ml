(* The one-shot side: one [wlcq ans|wl|tw] process at a time, each
   with the daemon's default 5 s deadline.  The CLI has no count-batch;
   a batch is answered the way a CLI user would, one [ans] process per
   query, and timed as one operation. *)

module Wire = Wlcq_serve.Wire
module Obs = Wlcq_obs.Obs

type proc = { code : int; out : string }

(* the child being waited for, so an interrupted run can reap it *)
let running : int option ref = ref None

let rec wait pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> c
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> 128 + abs s
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

let kill_running () =
  match !running with
  | None -> ()
  | Some pid ->
    running := None;
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (wait pid) with Unix.Unix_error _ -> ())

let run ~exe args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close wr; Unix.close null)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) null wr null)
  in
  running := Some pid;
  let out = Buffer.create 64 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read rd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes out chunk 0 n;
      drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  Fun.protect ~finally:(fun () -> Unix.close rd) drain;
  let code = wait pid in
  running := None;
  { code; out = Buffer.contents out }

let deadline = [ "--deadline-ms"; "5000" ]

(* The argument lists of the processes one CLI operation runs. *)
let commands ?metrics_out (op : Wire.op) =
  let obs = match metrics_out with Some f -> [ "--metrics-out"; f ] | None -> [] in
  let ans graph query = [ "ans"; query; "--graph"; graph ] @ deadline @ obs in
  match op with
  | Wire.Count { query; graph } -> [ ans graph query ]
  | Wire.Count_batch { queries; graph } -> List.map (ans graph) queries
  | Wire.Decide { k; g1; g2 } -> [ [ "wl"; "-k"; string_of_int k; "--g1"; g1; "--g2"; g2 ] @ deadline @ obs ]
  | Wire.Treewidth { graph } -> [ [ "tw"; "--graph"; graph ] @ deadline @ obs ]
  | Wire.Ping -> []

(* One CLI operation: the processes it ran, and its value when every
   process reported an exact answer. *)
type result = { procs : proc list; value : (string, string) Stdlib.result }

let first_line s = match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s

let failure p = Error (Printf.sprintf "exit %d: %s" p.code (String.trim p.out))

(* [after_proc] runs after each process exits (the traced run reads the
   process's --metrics-out snapshot there). *)
let execute ~exe ?metrics_out ?(after_proc = ignore) (op : Wire.op) =
  let procs =
    List.map
      (fun args ->
         let p = run ~exe args in
         after_proc ();
         p)
      (commands ?metrics_out op)
  in
  let value =
    match (op, procs) with
    | Wire.Ping, _ -> Ok "pong"
    | Wire.Decide _, [ p ] -> (
      (* exit 1 is the valid verdict "not equivalent", not a failure *)
      match (p.code, String.split_on_char ':' (first_line p.out)) with
      | (0 | 1), [ _; v ] -> Ok (String.trim v)
      | _ -> failure p)
    | _ -> (
      match List.find_opt (fun p -> p.code <> 0) procs with
      | Some p -> failure p
      | None -> Ok (String.concat "," (List.map (fun p -> String.trim (first_line p.out)) procs)))
  in
  { procs; value }

(* The peak RSS in KiB of each process of [op], run again through the
   [peak_rss] spawner (see peak_rss.c), or [Error] when one of them
   fails. *)
let peak_rss_kb ~probe ~exe op =
  List.map
    (fun args ->
       let p = run ~exe:probe (exe :: args) in
       match String.split_on_char ' ' (String.trim p.out) with
       | [ kb; ("0" | "1") ] when p.code = 0 -> Ok (int_of_string kb)
       | _ -> Error (Printf.sprintf "peak_rss %s: %s" (List.hd args) (String.trim p.out)))
    (commands op)

(* p50 wall time of a no-work call: process start-up and module
   initialisation. *)
let startup_ms ~exe ~reps =
  let times =
    Array.init reps (fun _ ->
        let t0 = Obs.now_ns () in
        ignore (run ~exe [ "tw"; "--graph"; "path:2" ]);
        Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e6)
  in
  Stats.median times
