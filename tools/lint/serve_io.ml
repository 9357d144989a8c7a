(* R11: blocking-call discipline in the service tier.

   The wlcq daemon's event loop is a single thread multiplexing every
   client socket; one unbounded [Unix.read] against a stalled client
   freezes the whole daemon.  The architectural answer in [lib/serve]
   is a designated I/O module ([io.ml]) whose wrappers all take an
   explicit [~timeout_s] bound: they work on non-blocking descriptors
   and wait in [select], for at most that bound, only after a call
   reports [EAGAIN].  This rule pins that architecture:

   - any blocking Unix call ([accept]/[read]/[write]/[select]/...)
     in a [lib/serve] file other than [io.ml] is a finding — route it
     through [Io];
   - inside [io.ml], a blocking call in a function whose parameters
     carry no [timeout]-ish label is a finding — even the designated
     module may not block without a bound.

   The callee match resolves per-file module aliases ([module U =
   Unix]) through the summary's alias table, the same way the
   call-graph rules do. *)

(* Unix primitives that can block indefinitely on a socket.  [connect]
   is included: a wedged daemon must not hang its clients either. *)
let blocking_calls =
  [ "accept"; "read"; "write"; "write_substring"; "single_write";
    "single_write_substring"; "select"; "recv"; "recvfrom"; "send";
    "send_substring"; "sendto"; "connect" ]

let in_serve file =
  let rec scan = function
    | "lib" :: "serve" :: _ -> true
    | _ :: rest -> scan rest
    | [] -> false
  in
  scan (String.split_on_char '/' (Filename.dirname file))

let is_io_module file = String.equal (Filename.basename file) "io.ml"

(* the head module of a callee path, with per-file aliases resolved:
   [U.read] under [module U = Unix] is a [Unix] call *)
let resolve_head aliases = function
  | [] -> []
  | head :: rest -> (
    match List.find_opt (fun (a, _) -> String.equal a head) aliases with
    | Some (_, target) -> target @ rest
    | None -> head :: rest)

let blocking_unix aliases (c : Summaries.call) =
  match resolve_head aliases c.Summaries.callee with
  | [ "Unix"; f ] -> List.exists (String.equal f) blocking_calls
  | _ -> false

(* [timeout_s], [timeout], [timeout_ms]... — the bound the wrapper is
   contractually required to enforce *)
let timeoutish label =
  String.length label >= 7 && String.equal (String.sub label 0 7) "timeout"

(* A function is timeout-bounded if it, or any lexically enclosing
   function (a dotted [fn_path] prefix, e.g. [write_all] for
   [write_all.go]), takes a timeout parameter: a local helper closes
   over the wrapper's bound. *)
let has_timeout_param fns (f : Summaries.fn) =
  let owns (g : Summaries.fn) = List.exists timeoutish g.Summaries.fn_params in
  owns f
  || begin
    let parts = String.split_on_char '.' f.Summaries.fn_path in
    let rec prefixes acc = function
      | [] | [ _ ] -> acc
      | p :: rest ->
        let acc =
          match acc with
          | [] -> [ p ]
          | longest :: _ -> (longest ^ "." ^ p) :: acc
        in
        prefixes acc rest
    in
    let ancestor_paths = prefixes [] parts in
    List.exists
      (fun (g : Summaries.fn) ->
         List.exists (String.equal g.Summaries.fn_path) ancestor_paths
         && owns g)
      fns
  end

let check summaries ~report =
  List.iter
    (fun (s : Summaries.file_summary) ->
       if in_serve s.Summaries.sum_file then begin
         let io = is_io_module s.Summaries.sum_file in
         List.iter
           (fun (f : Summaries.fn) ->
              List.iter
                (fun (c : Summaries.call) ->
                   if blocking_unix s.Summaries.sum_aliases c then begin
                     let callee =
                       String.concat "." c.Summaries.callee
                     in
                     if not io then
                       report
                         (Diagnostic.of_location ~file:s.Summaries.sum_file
                            ~rule:Diagnostic.R11 c.Summaries.call_loc
                            (Printf.sprintf
                               "blocking call %s outside the designated I/O \
                                module: one stalled client would freeze the \
                                event loop — route it through a \
                                timeout-bounded Io wrapper"
                               callee))
                     else if not (has_timeout_param s.Summaries.sum_fns f) then
                       report
                         (Diagnostic.of_location ~file:s.Summaries.sum_file
                            ~rule:Diagnostic.R11 c.Summaries.call_loc
                            (Printf.sprintf
                               "blocking call %s in '%s', which takes no \
                                ~timeout_s bound: even io.ml may not block \
                                without a caller-supplied timeout"
                               callee f.Summaries.fn_path))
                   end)
                f.Summaries.fn_calls)
           s.Summaries.sum_fns
       end)
    summaries
