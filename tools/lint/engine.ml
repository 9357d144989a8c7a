(* The lint driver.

   Per-file work (read, comment scan, parse, per-file rules, function
   summaries) runs on a domain pool — one task per file off an atomic
   counter.  [Parse.implementation] keeps lexer state in compiler-libs
   globals, so the parse itself is serialised behind a mutex; the
   comment scanner and the AST walks are pure and run concurrently.
   Whole-project passes (R3 domain safety, the R7/R8 call-graph rules)
   then run sequentially on the merged results, and pragma application
   stays per file. *)

type rule_count = { rule : Diagnostic.rule; findings : int; suppressions : int }

type result = {
  files_scanned : int;
  findings : Diagnostic.t list;
  suppressed : Diagnostic.t list;
  reasonless : Diagnostic.t list;
  by_rule : rule_count list;
  total_suppressions : int;
}

(* ------------------------------------------------------------------ *)
(* File collection                                                     *)
(* ------------------------------------------------------------------ *)

let skip_dir name =
  String.equal name "_build"
  || String.equal name "lint_fixtures"
  || (String.length name > 0 && name.[0] = '.')

let rec collect_ml ~include_fixtures acc path =
  if Sys.is_directory path then
    if skip_dir (Filename.basename path) && not include_fixtures then acc
    else
      Array.fold_left
        (fun acc entry ->
           collect_ml ~include_fixtures acc (Filename.concat path entry))
        acc
        (let entries = Sys.readdir path in
         Array.sort String.compare entries;
         entries)
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let normalize path =
  if String.length path > 2 && String.equal (String.sub path 0 2) "./" then
    String.sub path 2 (String.length path - 2)
  else path

(* ------------------------------------------------------------------ *)
(* Per-file pipeline                                                   *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

type scanned = {
  file : string;
  pragmas : Pragmas.t;
  raw : Diagnostic.t list;  (* pre-suppression findings, reverse order *)
  info : Domain_safety.file_info option;  (* None when the parse failed *)
  summary : Summaries.file_summary option;
}

(* "lib" as a path component, so the fixture tree under
   test/lint_fixtures/lib/ exercises the lib-only rules too *)
let in_lib file =
  List.exists (String.equal "lib")
    (String.split_on_char '/' (Filename.dirname file))

(* lib/cache is the one sanctioned home for module-level memo state
   (R10); matched as the path component pair so the fixture tree under
   test/lint_fixtures/lib/cache/ is exempt too *)
let in_cache_tier file =
  let rec scan = function
    | "lib" :: "cache" :: _ -> true
    | _ :: rest -> scan rest
    | [] -> false
  in
  scan (String.split_on_char '/' (Filename.dirname file))

let scan_file ~parse_mutex file =
  let in_lib = in_lib file in
  match read_file file with
  | exception Sys_error msg ->
    {
      file;
      pragmas = { Pragmas.pragmas = []; malformed = [] };
      raw = [ Diagnostic.make ~file ~line:1 ~col:0 ~rule:Diagnostic.R0
                ("cannot read file: " ^ msg) ];
      info = None;
      summary = None;
    }
  | source ->
    let pragmas = Pragmas.scan ~file source in
    let raw =
      ref (List.map (fun d -> { d with Diagnostic.file }) pragmas.malformed)
    in
    let report d = raw := d :: !raw in
    let parsed =
      (* compiler-libs keeps lexer state in globals: serialise the
         parse, run everything downstream of the Parsetree in
         parallel *)
      Mutex.lock parse_mutex;
      let r =
        match
          let lexbuf = Lexing.from_string source in
          Location.init lexbuf file;
          Parse.implementation lexbuf
        with
        | str -> Some str
        | exception exn ->
          report
            (Diagnostic.make ~file ~line:1 ~col:0 ~rule:Diagnostic.R0
               ("parse error: " ^ Printexc.to_string exn));
          None
      in
      Mutex.unlock parse_mutex;
      r
    in
    let info, summary =
      match parsed with
      | None -> (None, None)
      | Some str ->
        let facts = Ast_rules.check ~file ~in_lib ~report str in
        if in_lib && not (in_cache_tier file) then
          List.iter
            (fun (loc, name) ->
               report
                 (Diagnostic.of_location ~file ~rule:Diagnostic.R10 loc
                    (Printf.sprintf
                       "module-level table '%s' is an ad-hoc memo outside \
                        the shared cache tier: it is unbounded and invisible \
                        to size accounting — route the artifact through \
                        Wlcq_cache.Cache.store, or justify with (* lint: \
                        allow R10 <reason> *)"
                       name)))
            (List.rev facts.Ast_rules.top_tables);
        let hot = Ast_rules.hot_engine_file ~in_lib file in
        let summary = Summaries.scan ~file ~in_lib ~hot ~report str in
        Static_link.check ~file ~aliases:summary.Summaries.sum_aliases
          ~report str;
        (Some (Domain_safety.make_info file facts), Some summary)
    in
    if in_lib then begin
      let mli = Filename.remove_extension file ^ ".mli" in
      if not (Sys.file_exists mli) then
        report
          (Diagnostic.make ~file ~line:1 ~col:0 ~rule:Diagnostic.R4
             (Printf.sprintf
                "missing interface %s: every module under lib/ declares its \
                 API in a .mli"
                mli))
    end;
    { file; pragmas; raw = !raw; info; summary }

(* ------------------------------------------------------------------ *)
(* The domain pool                                                     *)
(* ------------------------------------------------------------------ *)

let scan_parallel files =
  let files = Array.of_list files in
  let n = Array.length files in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let parse_mutex = Mutex.create () in
  let worker () =
    let continue_ = ref true in
    while !continue_ do
      let i = Atomic.fetch_and_add next 1 in
      if i >= n then continue_ := false
      else results.(i) <- Some (scan_file ~parse_mutex files.(i))
    done
  in
  let workers = max 1 (min 8 (Domain.recommended_domain_count ())) in
  let extra = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join extra;
  (* every slot is written exactly once before the joins *)
  Array.to_list results
  |> List.filter_map (fun s -> s)

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let count_rule rule list =
  List.length
    (List.filter
       (fun r -> String.equal (Diagnostic.rule_id r) (Diagnostic.rule_id rule))
       list)

let run ?(include_fixtures = false) ~roots () =
  let files =
    List.sort_uniq String.compare
      (List.concat_map
         (fun root ->
            if Sys.file_exists root then
              List.map normalize (collect_ml ~include_fixtures [] root)
            else [])
         roots)
  in
  let scanned = scan_parallel files in
  (* whole-project passes, sequential: R3 over the per-file facts,
     then the call-graph rules R7/R8 over the function summaries *)
  let project = ref [] in
  let preport d = project := d :: !project in
  Domain_safety.check
    (List.filter_map (fun s -> s.info) scanned)
    ~report:preport;
  let graph =
    Callgraph.build (List.filter_map (fun s -> s.summary) scanned)
  in
  Budget_reach.check graph ~report:preport;
  Outcome_escape.check graph ~report:preport;
  Serve_io.check
    (List.filter_map (fun s -> s.summary) scanned)
    ~report:preport;
  let by_file =
    List.map
      (fun s ->
         let extra =
           List.filter
             (fun (d : Diagnostic.t) -> String.equal d.file s.file)
             !project
         in
         (s, List.rev_append s.raw extra))
      scanned
  in
  let active = ref [] in
  let suppressed = ref [] in
  let used_rules = ref [] in
  let reasonless = ref [] in
  let n_used = ref 0 in
  List.iter
    (fun (s, findings) ->
       let used = ref [] in
       List.iter
         (fun d ->
            match Pragmas.find_suppressor s.pragmas d with
            | Some p ->
              if not (List.memq p !used) then used := p :: !used;
              suppressed := d :: !suppressed
            | None -> active := d :: !active)
         findings;
       let unused =
         List.map
           (fun (d : Diagnostic.t) -> { d with Diagnostic.file = s.file })
           (Pragmas.unused s.pragmas ~used:!used)
       in
       active := List.rev_append unused !active;
       n_used := !n_used + List.length !used;
       used_rules :=
         List.rev_append
           (List.map (fun (p : Pragmas.pragma) -> p.Pragmas.rule) !used)
           !used_rules;
       reasonless :=
         List.rev_append
           (List.map
              (fun (p : Pragmas.pragma) ->
                 Diagnostic.make ~file:s.file ~line:p.Pragmas.line ~col:0
                   ~rule:Diagnostic.R0
                   (Printf.sprintf
                      "suppression for %s without a recorded reason: justify \
                       it in the pragma text (reported by --strict)"
                      (Diagnostic.rule_id p.Pragmas.rule)))
              (Pragmas.reasonless s.pragmas))
           !reasonless)
    by_file;
  let findings = List.sort Diagnostic.compare !active in
  let suppressed = List.sort Diagnostic.compare !suppressed in
  let by_rule =
    List.map
      (fun rule ->
         {
           rule;
           findings =
             count_rule rule (List.map (fun d -> d.Diagnostic.rule) findings);
           suppressions = count_rule rule !used_rules;
         })
      Diagnostic.all_rules
  in
  {
    files_scanned = List.length files;
    findings;
    suppressed;
    reasonless = List.sort Diagnostic.compare !reasonless;
    by_rule;
    total_suppressions = !n_used;
  }

(* ------------------------------------------------------------------ *)
(* Machine-readable output                                             *)
(* ------------------------------------------------------------------ *)

(* One JSON object for the whole run; the diagnostics reuse the Obs
   trace exporter's escaping and are gated by the same strict acceptor
   in the tests. *)
let to_json result =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\"files_scanned\":%d,\"diagnostics\":["
       result.files_scanned);
  let first = ref true in
  let emit ~suppressed d =
    if !first then first := false else Buffer.add_char b ',';
    Diagnostic.add_json b ~suppressed d
  in
  List.iter (emit ~suppressed:false) result.findings;
  List.iter (emit ~suppressed:true) result.suppressed;
  Buffer.add_string b
    (Printf.sprintf "],\"total_findings\":%d,\"total_suppressions\":%d}"
       (List.length result.findings)
       result.total_suppressions);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Suppression census                                                  *)
(* ------------------------------------------------------------------ *)

(* DESIGN.md carries a per-rule census of deliberate suppressions (the
   markdown table rows look like [| R7 | 28 | ... |]).  The census
   check compares those recorded counts against the live run, so any
   pragma added or removed forces a conscious DESIGN.md update in the
   same change. *)

let parse_census text =
  let rows = ref [] in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
      match String.split_on_char '|' line with
      | "" :: rule_cell :: count_cell :: _ -> (
        let rule_word = String.trim rule_cell in
        match
          (Diagnostic.rule_of_id rule_word,
           int_of_string_opt (String.trim count_cell))
        with
        | Some rule, Some count -> rows := (rule, count) :: !rows
        | _ -> ())
      | _ -> ());
  List.rev !rows

let census_drift ~census result =
  List.filter_map
    (fun { rule; suppressions; _ } ->
       let recorded =
         List.fold_left
           (fun acc (r, c) -> if r = rule then acc + c else acc)
           0 census
       in
       if recorded = suppressions then None
       else Some (rule, recorded, suppressions))
    result.by_rule
