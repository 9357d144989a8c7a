(* Host readings: process CPU and memory from /proc, host-wide CPU
   accounting (steal and other tenants), a fixed CPU probe, and run
   provenance.  None of these normalise a metric; they are recorded
   next to it so a run slowed by the host can be told apart from one
   slowed by the code. *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

(* USER_HZ: the unit of /proc CPU times, 100 on Linux *)
let clk_tck = 100.0

(* user + system CPU seconds of [pid], from fields 14 and 15 of
   /proc/<pid>/stat (the command name in field 2 may hold spaces, so
   fields are counted after its closing parenthesis). *)
let proc_cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> None
  | Some s -> (
    match String.rindex_opt s ')' with
    | None -> None
    | Some i -> (
      let rest = String.sub s (i + 2) (String.length s - i - 2) in
      match String.split_on_char ' ' rest with
      | _state :: _ppid :: _pgrp :: _sess :: _tty :: _tpgid :: _flags :: _minflt
        :: _cminflt :: _majflt :: _cmajflt :: utime :: stime :: _ ->
        Some ((float_of_string utime +. float_of_string stime) /. clk_tck)
      | _ -> None))

(* VmHWM (peak resident set) of [pid] in MiB. *)
let vm_hwm_mb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> None
  | Some s ->
    List.find_map
      (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] -> (
           match String.split_on_char ' ' (String.trim v) with
           | kb :: _ -> Some (float_of_string kb /. 1024.0)
           | [] -> None)
         | _ -> None)
      (String.split_on_char '\n' s)

(* The aggregate "cpu" line of /proc/stat, in ticks:
   (busy, steal, total), where busy excludes idle, iowait and steal. *)
type stat = { busy : float; steal : float; total : float }

let proc_stat () =
  match read_file "/proc/stat" with
  | None -> None
  | Some s -> (
    match String.split_on_char '\n' s with
    | line :: _ -> (
      let f = List.filter (fun x -> x <> "") (String.split_on_char ' ' line) in
      match f with
      | "cpu" :: user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal :: _ ->
        let v = float_of_string in
        let busy = v user +. v nice +. v system +. v irq +. v softirq in
        Some { busy; steal = v steal; total = busy +. v idle +. v iowait +. v steal }
      | _ -> None)
    | [] -> None)

type noise = {
  steal_share : float;  (** steal ticks / all ticks over the phase *)
  other_share : float;
      (** busy ticks not spent by this benchmark's processes / all ticks *)
  probe_before_s : float;
  probe_after_s : float;
}

(* A fixed integer loop; its wall time moves only with the host. *)
let probe () =
  let t0 = Unix.gettimeofday () in
  let x = ref 1 in
  for i = 1 to 20_000_000 do
    x := (!x * 1103515245) + 12345 + i
  done;
  ignore (Sys.opaque_identity !x);
  Unix.gettimeofday () -. t0

let noise ~before ~after ~ours_s ~probe_before_s ~probe_after_s =
  match (before, after) with
  | Some b, Some a when a.total > b.total ->
    let total = a.total -. b.total in
    let ours = ours_s *. clk_tck in
    { steal_share = (a.steal -. b.steal) /. total;
      other_share = Float.max 0.0 ((a.busy -. b.busy -. ours) /. total);
      probe_before_s; probe_after_s }
  | _ -> { steal_share = 0.0; other_share = 0.0; probe_before_s; probe_after_s }

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let children_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* ------------------------------------------------------------------ *)
(* Provenance                                                           *)
(* ------------------------------------------------------------------ *)

let cpu_model () =
  match read_file "/proc/cpuinfo" with
  | None -> "unknown"
  | Some s ->
    Option.value ~default:"unknown"
      (List.find_map
         (fun line ->
            match String.index_opt line ':' with
            | Some i when String.starts_with ~prefix:"model name" line ->
              Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
            | _ -> None)
         (String.split_on_char '\n' s))

let nproc () =
  match read_file "/proc/cpuinfo" with
  | None -> Domain.recommended_domain_count ()
  | Some s ->
    List.length
      (List.filter (String.starts_with ~prefix:"processor") (String.split_on_char '\n' s))

let command_output argv =
  try
    let ic = Unix.open_process_args_in argv.(0) argv in
    let out = In_channel.input_all ic in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> Some (String.trim out)
    | _ -> None
  with Unix.Unix_error _ | Sys_error _ -> None

(* The git revision and dirty flag, only when the checkout itself is a
   git work tree: git is pointed at ./.git explicitly so it never
   searches the directories above the checkout. *)
let git_revision ~root =
  if not (Sys.file_exists (Filename.concat root ".git")) then ("none", false)
  else
    let git args =
      command_output
        (Array.append
           [| "git"; "--git-dir=" ^ Filename.concat root ".git"; "--work-tree=" ^ root |]
           args)
    in
    match git [| "rev-parse"; "HEAD" |] with
    | None -> ("none", false)
    | Some rev ->
      let dirty =
        match git [| "status"; "--porcelain"; "--untracked-files=no" |] with
        | Some "" -> false
        | _ -> true
      in
      (rev, dirty)

(* Digest of the program's sources (lib/ and bin/), so runs of checkouts
   that are not git work trees still name the code they measured. *)
let source_digest ~root =
  let files = ref [] in
  let rec walk rel =
    let abs = Filename.concat root rel in
    if Sys.is_directory abs then
      Array.iter (fun e -> walk (Filename.concat rel e)) (Sys.readdir abs)
    else if Filename.check_suffix rel ".ml" || Filename.check_suffix rel ".mli"
            || Filename.basename rel = "dune"
    then files := rel :: !files
  in
  List.iter (fun d -> if Sys.file_exists (Filename.concat root d) then walk d) [ "lib"; "bin" ];
  let b = Buffer.create 4096 in
  List.iter
    (fun rel ->
       Buffer.add_string b rel;
       Buffer.add_string b (Digest.to_hex (Digest.file (Filename.concat root rel))))
    (List.sort compare !files);
  Digest.to_hex (Digest.string (Buffer.contents b))
