type rule = R0 | R1 | R2 | R3 | R4 | R6 | R7 | R8 | R9 | R10 | R11 | R12

let rule_id = function
  | R0 -> "R0"
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R6 -> "R6"
  | R7 -> "R7"
  | R8 -> "R8"
  | R9 -> "R9"
  | R10 -> "R10"
  | R11 -> "R11"
  | R12 -> "R12"

let rule_of_id = function
  | "R0" -> Some R0
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R3" -> Some R3
  | "R4" -> Some R4
  | "R6" -> Some R6
  | "R7" -> Some R7
  | "R8" -> Some R8
  | "R9" -> Some R9
  | "R10" -> Some R10
  | "R11" -> Some R11
  | "R12" -> Some R12
  | _ -> None

(* Rules that once existed and were replaced: naming one in a pragma is
   an R0 finding pointing at the successor, not a silent no-op. *)
let retired_rules = [ ("R5", "R7") ]

let retired_successor id =
  List.find_opt (fun (r, _) -> String.equal r id) retired_rules
  |> Option.map snd

let rule_summary = function
  | R0 -> "lint integrity (parse errors, malformed or unused pragmas)"
  | R1 -> "polymorphic compare/hash on structured values"
  | R2 -> "partial/unsafe functions and error-message convention"
  | R3 -> "top-level mutable state visible to Domain.spawn code"
  | R4 -> "hygiene (missing .mli, printing from lib/)"
  | R6 -> "hard-coded size threshold in an engine hot path (use Wlcq_dispatch)"
  | R7 -> "loop or recursion reachable from a *_budgeted entry without a budget poll"
  | R8 -> "exception escaping a *_budgeted entry instead of an Outcome"
  | R9 -> "per-iteration allocation in an engine hot loop"
  | R10 ->
    "module-level memo table in lib/ outside the shared cache tier \
     (use Wlcq_cache.Cache.store)"
  | R11 ->
    "blocking Unix call in the service tier outside the designated I/O \
     module (or without a timeout bound)"
  | R12 ->
    "NSS- or dlopen-backed call in shipped code (the Linux build links \
     glibc statically)"

let all_rules = [ R0; R1; R2; R3; R4; R6; R7; R8; R9; R10; R11; R12 ]

type t = { file : string; line : int; col : int; rule : rule; message : string }

let make ~file ~line ~col ~rule message = { file; line; col; rule; message }

let of_location ~file ~rule (loc : Location.t) message =
  {
    file;
    line = loc.loc_start.pos_lnum;
    col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
    rule;
    message;
  }

let compare d1 d2 =
  let c = String.compare d1.file d2.file in
  if c <> 0 then c
  else
    let c = Int.compare d1.line d2.line in
    if c <> 0 then c else Int.compare d1.col d2.col

let to_string d =
  Printf.sprintf "%s:%d:%d %s %s" d.file d.line d.col (rule_id d.rule) d.message

(* JSON rendering for `wlcq_lint --json`, mirroring the escaping rules
   of the Obs trace exporter (whose strict acceptor gates the output in
   the tests). *)
let json_escape buf s =
  String.iter
    (fun ch ->
       match ch with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s

let add_json buf ~suppressed d =
  Buffer.add_string buf "{\"file\":\"";
  json_escape buf d.file;
  Buffer.add_string buf (Printf.sprintf "\",\"line\":%d,\"col\":%d" d.line d.col);
  Buffer.add_string buf ",\"rule\":\"";
  Buffer.add_string buf (rule_id d.rule);
  Buffer.add_string buf "\",\"message\":\"";
  json_escape buf d.message;
  Buffer.add_string buf
    (if suppressed then "\",\"suppressed\":true}" else "\",\"suppressed\":false}")
