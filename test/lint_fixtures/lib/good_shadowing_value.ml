(* R7 fixture: a parameter, a [let] value and a case variable that
   share their name with a top-level function are values, not calls of
   it.  [counters] below recurses without polling, so a bare use of the
   name resolved to it would be a finding under each entry; nothing here
   calls it.  Parsed by the linter only, never compiled. *)

let rec counters n = if n = 0 then 0 else counters (n - 1) + 1

(* the parameter, read as a record *)
let flush ~counters xs =
  counters.entries <- counters.entries + Array.length xs

let flush_budgeted ~budget ~counters xs =
  Budget.tick budget;
  flush ~counters xs

(* a [let] value and a case variable *)
let size_budgeted ~budget xs =
  Budget.tick budget;
  let counters = Array.length xs in
  match xs with
  | [||] -> counters
  | _ -> ( match Some counters with Some counters -> counters + 1 | None -> 0)
