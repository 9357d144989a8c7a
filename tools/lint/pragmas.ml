(* Allow pragmas are ordinary comments:

     (* lint: allow R2 reason for this exact site *)
     (* lint: domain-local reason *)
     (* lint: hot-alloc reason *)

   A pragma suppresses findings of its rule on every line the comment
   spans and on the line immediately below it, so it can sit at the end
   of the offending line or just above it (wrapping onto several lines
   when the reason needs them).  [domain-local] is shorthand for
   allowing R3 (the domain-safety rule) and [hot-alloc] for R9 (the
   hot-loop allocation rule); [hot-alloc]'s reason is optional in
   ordinary runs and mandatory under [--strict].

   Comments are collected by a self-contained scanner rather than
   compiler-libs' [Lexer]: the compiler lexer keeps its comment buffer
   in global state, which would serialise the per-file scans the engine
   runs on a domain pool.  The scanner tracks strings, quoted strings
   and character literals so a ["(*"] inside a literal never opens a
   comment, handles nested comments, and is byte-oriented, so CRLF
   line endings and a final line without a trailing newline are
   scanned like any other. *)

type pragma = {
  rule : Diagnostic.rule;
  line : int;  (* first line of the comment *)
  last_line : int;  (* last line of the comment *)
  reason : string;  (* "" only for the reason-optional [hot-alloc] form *)
}

type t = { pragmas : pragma list; malformed : Diagnostic.t list }

(* ------------------------------------------------------------------ *)
(* Comment extraction                                                  *)
(* ------------------------------------------------------------------ *)

let comments_of_source source =
  let n = String.length source in
  let acc = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let bump c = if Char.equal c '\n' then incr line in
  (* skip a string literal body starting after the opening quote *)
  let skip_string () =
    let closed = ref false in
    while not !closed && !i < n do
      (match source.[!i] with
       | '\\' when !i + 1 < n ->
         bump source.[!i + 1];
         incr i
       | '"' -> closed := true
       | c -> bump c);
      incr i
    done
  in
  (* at '{': if this opens a quoted string {tag|...|tag}, skip it and
     return true *)
  let skip_quoted_string () =
    let j = ref (!i + 1) in
    while
      !j < n
      && (match source.[!j] with 'a' .. 'z' | '_' -> true | _ -> false)
    do
      incr j
    done;
    if !j < n && Char.equal source.[!j] '|' then begin
      let tag = String.sub source (!i + 1) (!j - !i - 1) in
      let closing = "|" ^ tag ^ "}" in
      let cl = String.length closing in
      i := !j + 1;
      let closed = ref false in
      while not !closed && !i < n do
        if
          !i + cl <= n
          && String.equal (String.sub source !i cl) closing
        then begin
          i := !i + cl;
          closed := true
        end
        else begin
          bump source.[!i];
          incr i
        end
      done;
      true
    end
    else false
  in
  (* at '\'': a character literal ('x', '\n', '\123', '\xFF') or a type
     variable; skip the literal so '"' or "(*" inside one stays inert *)
  let skip_char_or_tyvar () =
    if !i + 1 < n && Char.equal source.[!i + 1] '\\' then begin
      let j = ref (!i + 2) in
      while !j < n && not (Char.equal source.[!j] '\'') && !j - !i < 6 do
        incr j
      done;
      i := if !j < n && Char.equal source.[!j] '\'' then !j + 1 else !i + 1
    end
    else if !i + 2 < n && Char.equal source.[!i + 2] '\'' then i := !i + 3
    else incr i
  in
  while !i < n do
    match source.[!i] with
    | '"' ->
      incr i;
      skip_string ()
    | '{' -> if not (skip_quoted_string ()) then incr i
    | '\'' -> skip_char_or_tyvar ()
    | '(' when !i + 1 < n && Char.equal source.[!i + 1] '*' ->
      (* a comment: collect its text, tracking nesting and strings *)
      let start_line = !line in
      let buf = Buffer.create 64 in
      i := !i + 2;
      let depth = ref 1 in
      while !depth > 0 && !i < n do
        if !i + 1 < n && Char.equal source.[!i] '(' && Char.equal source.[!i + 1] '*'
        then begin
          incr depth;
          Buffer.add_string buf "(*";
          i := !i + 2
        end
        else if
          !i + 1 < n && Char.equal source.[!i] '*' && Char.equal source.[!i + 1] ')'
        then begin
          decr depth;
          if !depth > 0 then Buffer.add_string buf "*)";
          i := !i + 2
        end
        else if Char.equal source.[!i] '"' then begin
          Buffer.add_char buf '"';
          incr i;
          let closed = ref false in
          while not !closed && !i < n do
            (match source.[!i] with
             | '\\' when !i + 1 < n ->
               Buffer.add_char buf '\\';
               Buffer.add_char buf source.[!i + 1];
               bump source.[!i + 1];
               incr i
             | '"' ->
               Buffer.add_char buf '"';
               closed := true
             | c ->
               Buffer.add_char buf c;
               bump c);
            incr i
          done
        end
        else begin
          bump source.[!i];
          Buffer.add_char buf source.[!i];
          incr i
        end
      done;
      (* an unterminated comment is a parse error the parser reports *)
      if !depth = 0 then
        acc := (Buffer.contents buf, start_line, !line) :: !acc
    | c ->
      bump c;
      incr i
  done;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Pragma parsing                                                      *)
(* ------------------------------------------------------------------ *)

let split_words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\n')
  |> List.concat_map (String.split_on_char '\r')
  |> List.filter (fun w -> not (String.equal w ""))

let parse_comment ~file (text, line, last_line) =
  let text = String.trim text in
  let prefix = "lint:" in
  if
    String.length text < String.length prefix
    || not (String.equal (String.sub text 0 (String.length prefix)) prefix)
  then None
  else
    let body =
      String.trim
        (String.sub text (String.length prefix)
           (String.length text - String.length prefix))
    in
    let malformed msg =
      Some (Error (Diagnostic.make ~file ~line ~col:0 ~rule:Diagnostic.R0 msg))
    in
    match split_words body with
    | "allow" :: rule_word :: reason_words -> (
      match Diagnostic.rule_of_id rule_word with
      | Some rule -> (
        match reason_words with
        | _ :: _ ->
          Some
            (Ok { rule; line; last_line; reason = String.concat " " reason_words })
        | [] ->
          malformed
            "malformed pragma: 'lint: allow RULE reason' needs a non-empty \
             reason")
      | None -> (
        match Diagnostic.retired_successor rule_word with
        | Some succ ->
          malformed
            (Printf.sprintf
               "pragma names retired rule %s (subsumed by %s): migrate the \
                suppression to %s or delete it"
               rule_word succ succ)
        | None ->
          malformed
            (Printf.sprintf
               "malformed pragma: unknown rule %S (expected R1..R12)" rule_word)))
    | "domain-local" :: (_ :: _ as reason_words) ->
      Some
        (Ok { rule = Diagnostic.R3; line; last_line;
              reason = String.concat " " reason_words })
    | [ "domain-local" ] ->
      malformed
        "malformed pragma: 'lint: domain-local reason' needs a non-empty \
         reason"
    | "hot-alloc" :: reason_words ->
      (* reason optional here; [--strict] reports the empty form *)
      Some
        (Ok { rule = Diagnostic.R9; line; last_line;
              reason = String.concat " " reason_words })
    | _ ->
      malformed
        "malformed pragma: expected 'lint: allow RULE reason', 'lint: \
         domain-local reason' or 'lint: hot-alloc reason'"

let scan ~file source =
  let comments = comments_of_source source in
  let pragmas, malformed =
    List.fold_left
      (fun (ps, ms) c ->
         match parse_comment ~file c with
         | None -> (ps, ms)
         | Some (Ok p) -> (p :: ps, ms)
         | Some (Error m) -> (ps, m :: ms))
      ([], []) comments
  in
  { pragmas = List.rev pragmas; malformed = List.rev malformed }

let find_suppressor t (d : Diagnostic.t) =
  List.find_opt
    (fun p ->
       String.equal (Diagnostic.rule_id p.rule) (Diagnostic.rule_id d.rule)
       && d.line >= p.line
       && d.line <= p.last_line + 1)
    t.pragmas

let unused t ~used =
  List.filter_map
    (fun p ->
       if List.memq p used then None
       else
         Some
           (Diagnostic.make ~file:"" ~line:p.line ~col:0 ~rule:Diagnostic.R0
              (Printf.sprintf
                 "unused suppression for %s (%s): remove the pragma or \
                  restore the violation it covered"
                 (Diagnostic.rule_id p.rule)
                 (match p.reason with "" -> "no reason given" | r -> r))))
    t.pragmas

let reasonless t =
  List.filter (fun p -> String.equal p.reason "") t.pragmas
