(* Function-level facts for the interprocedural rules (R7/R8).

   One walk per parsed file extracts, for every function binding
   (top-level, module-nested and [let]-nested), the calls it makes,
   the exceptions it can raise directly, the [for]/[while] loops it
   contains and whether it polls a [Budget] — everything the
   whole-project passes in [Callgraph] need, at file+function
   granularity.  The same walk reports rule R9 (hot-loop allocation)
   because it is the only pass that tracks loop context.

   Conventions and approximations (documented in DESIGN.md):
   - an inline [fun] passed as an argument is attributed to its
     enclosing function: combinators like [Bitset.iter] run their
     argument within the dynamic extent of the call, so raises and
     polls inside the lambda propagate through the enclosing function;
   - a [let]-bound nested function is its own node, named
     [outer.inner], and bare calls resolve through the scope chain;
   - a bare name bound by a parameter, a [let] value or a case or
     [for] pattern is a read of that value, not a call: it shadows any
     same-named function (a local function shadows such a value in
     turn);
   - handler context is syntactic: a [try]/[match ... with exception]
     whose guard-free patterns cover an exception class masks it. *)

open Parsetree
module SS = Set.Make (String)

type exn_class =
  | Exhausted  (* Budget.Exhausted: the sanctioned cooperative unwind *)
  | Failure_
  | Invalid_argument_
  | Not_found_
  | Other of string

let exn_class_name = function
  | Exhausted -> "Budget.Exhausted"
  | Failure_ -> "Failure"
  | Invalid_argument_ -> "Invalid_argument"
  | Not_found_ -> "Not_found"
  | Other s -> s

let exn_class_equal a b =
  match (a, b) with
  | Exhausted, Exhausted
  | Failure_, Failure_
  | Invalid_argument_, Invalid_argument_
  | Not_found_, Not_found_ -> true
  | Other x, Other y -> String.equal x y
  | _ -> false

type handler = Catch_all | Catch of exn_class list

let caught hs c =
  List.exists
    (function
      | Catch_all -> true
      | Catch cs -> List.exists (exn_class_equal c) cs)
    hs

type call = {
  callee : string list;  (* dotted path components, [Stdlib] stripped *)
  labels : string list;  (* labelled/optional argument names supplied *)
  call_loc : Location.t;
  call_loop : int;  (* innermost enclosing loop index, -1 at top level *)
  call_handlers : handler list;  (* innermost first *)
}

type raise_site = {
  exn : exn_class;
  via : string;  (* human-readable raiser, e.g. "failwith" *)
  raise_loc : Location.t;
  raise_handlers : handler list;
}

type loop = {
  loop_loc : Location.t;
  enclosing : int;  (* index of the enclosing loop, -1 *)
  (* lint: domain-local loop facts are built per file inside one scan
     call and only read after the scan returns *)
  mutable nests : bool;  (* contains another for/while loop *)
  (* lint: domain-local loop facts are built per file inside one scan
     call and only read after the scan returns *)
  mutable loop_poll : bool;  (* a Budget poll appears inside *)
}

type fn = {
  fn_path : string;  (* dotted path within the file, e.g. "M.count.go" *)
  fn_loc : Location.t;
  fn_rec : bool;  (* bound with [let rec] *)
  fn_params : string list;  (* labelled/optional parameter names *)
  (* lint: domain-local function summaries are built per file inside one
     scan call and only read after the scan returns *)
  mutable fn_polls : bool;  (* body contains a direct Budget poll *)
  (* lint: domain-local function summaries are built per file inside one
     scan call and only read after the scan returns *)
  mutable fn_calls : call list;
  (* lint: domain-local function summaries are built per file inside one
     scan call and only read after the scan returns *)
  mutable fn_raises : raise_site list;
  (* lint: domain-local function summaries are built per file inside one
     scan call and only read after the scan returns *)
  mutable fn_loops : loop list;  (* in definition order; indexed by
                                    [call_loop]/[enclosing] *)
}

type file_summary = {
  sum_file : string;
  sum_in_lib : bool;
  sum_fns : fn list;
  sum_aliases : (string * string list) list;
      (* module aliases: [module B = Wlcq_robust.Budget] *)
}

(* ------------------------------------------------------------------ *)
(* Path classification                                                 *)
(* ------------------------------------------------------------------ *)

let flatten li = try Longident.flatten li with _ -> []
let strip_stdlib = function "Stdlib" :: rest -> rest | parts -> parts

let class_of_exn_path parts =
  match List.rev (strip_stdlib parts) with
  | "Exhausted" :: _ -> Exhausted
  | [ "Failure" ] -> Failure_
  | [ "Invalid_argument" ] -> Invalid_argument_
  | [ "Not_found" ] -> Not_found_
  | last :: _ -> Other last
  | [] -> Other "?"

(* Budget poll entry points: [tick]/[live]/[tripped]/[poll] observe the
   trip state without raising; [check]/[tick_check] raise [Exhausted].
   Matched on the last two path components so the conventional
   [module Budget = Wlcq_robust.Budget] alias and the fully qualified
   form both hit. *)
let budget_poll parts =
  match List.rev (strip_stdlib parts) with
  | f :: "Budget" :: _ -> (
    match f with
    | "tick" | "live" | "tripped" | "poll" -> Some false
    | "tick_check" | "check" -> Some true
    | _ -> None)
  | _ -> None

(* Raising stdlib entry points tracked beyond explicit
   [raise]/[failwith]/[invalid_arg].  Bounds checks ([Array.get]) and
   [assert] are deliberately out of scope: they signal programming
   bugs, not control flow the Outcome contract must contain. *)
let stdlib_raiser parts =
  match strip_stdlib parts with
  | [ "failwith" ] -> Some (Failure_, "failwith")
  | [ "invalid_arg" ] -> Some (Invalid_argument_, "invalid_arg")
  | [ "int_of_string" ] -> Some (Failure_, "int_of_string")
  | [ "Hashtbl"; "find" ] -> Some (Not_found_, "Hashtbl.find")
  | [ "List"; ("find" | "assoc") as f ] -> Some (Not_found_, "List." ^ f)
  | [ "List"; ("hd" | "tl") as f ] -> Some (Failure_, "List." ^ f)
  | [ "List"; "nth" ] -> Some (Failure_, "List.nth")
  | [ "Option"; "get" ] -> Some (Invalid_argument_, "Option.get")
  | [ "Sys"; "getenv" ] -> Some (Not_found_, "Sys.getenv")
  | _ -> None

(* The [List.map] family (and friends) that allocate a fresh structure
   per call — flagged by R9 when called from an engine hot loop. *)
let allocating_combinator parts =
  match strip_stdlib parts with
  | [ "@" ] -> Some "l1 @ l2"
  | [ "List";
      ( "map" | "mapi" | "map2" | "rev_map" | "filter" | "filteri"
      | "filter_map" | "concat_map" | "init" | "append" | "concat"
      | "flatten" | "combine" | "split" | "merge" | "sort" | "sort_uniq"
      | "stable_sort" | "fast_sort" | "rev" ) as f ] -> Some ("List." ^ f)
  | [ "Array"; ("map" | "mapi" | "map2" | "to_list" | "of_list" | "init") as f ]
    -> Some ("Array." ^ f)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Pattern/handler helpers                                             *)
(* ------------------------------------------------------------------ *)

(* Exception classes a guard-free catch pattern covers. *)
let rec classes_of_catch_pattern p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> Some `All
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> classes_of_catch_pattern p
  | Ppat_or (a, b) -> (
    match (classes_of_catch_pattern a, classes_of_catch_pattern b) with
    | Some `All, _ | _, Some `All -> Some `All
    | Some (`Some xs), Some (`Some ys) -> Some (`Some (xs @ ys))
    | (Some _ as s), None | None, (Some _ as s) -> s
    | None, None -> None)
  | Ppat_construct ({ txt; _ }, _) ->
    Some (`Some [ class_of_exn_path (flatten txt) ])
  | _ -> None

let handler_of_patterns pats =
  List.fold_left
    (fun acc p ->
       match (acc, classes_of_catch_pattern p) with
       | Catch_all, _ | _, Some `All -> Catch_all
       | Catch xs, Some (`Some ys) -> Catch (xs @ ys)
       | acc, None -> acc)
    (Catch []) pats

let guardfree_patterns cases =
  List.filter_map
    (fun c -> if Option.is_some c.pc_guard then None else Some c.pc_lhs)
    cases

(* [exception P] sub-patterns of a [match] case pattern. *)
let rec exception_subpatterns p =
  match p.ppat_desc with
  | Ppat_exception sub -> [ sub ]
  | Ppat_or (a, b) -> exception_subpatterns a @ exception_subpatterns b
  | _ -> []

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)
(* ------------------------------------------------------------------ *)

let rec strip_constraint e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> strip_constraint e
  | _ -> e

let is_function_expr e =
  match (strip_constraint e).pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | _ -> false

let binding_name pat =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> Some txt
  | _ -> None

(* The variables a pattern binds. *)
let pattern_vars p =
  let acc = ref [] in
  let pat self p =
    (match p.ppat_desc with
     | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
     | _ -> ());
    Ast_iterator.default_iterator.pat self p
  in
  let it = { Ast_iterator.default_iterator with pat } in
  it.pat it p;
  !acc

(* Labelled/optional parameter names of a function binding's fun-chain
   (feeds R11: io.ml wrappers must take an explicit timeout bound). *)
let rec param_labels e =
  match (strip_constraint e).pexp_desc with
  | Pexp_fun (lbl, _, _, body) -> (
    match lbl with
    | Asttypes.Labelled s | Asttypes.Optional s -> s :: param_labels body
    | Asttypes.Nolabel -> param_labels body)
  | Pexp_newtype (_, body) -> param_labels body
  | _ -> []

let scan ~file ~in_lib ~hot ~report (str : structure) =
  let fns = ref [] in
  let aliases = ref [] in
  let mod_prefix_rev = ref [] in
  (* walker state: current function accumulator plus loop/handler ctx.
     [fn_loops] is built in reverse and flipped once at the end;
     [loop_stack] holds the records of the enclosing loop chain,
     innermost first, so poll/nest marking never indexes a list. *)
  let current = ref None in
  let cur_loop = ref (-1) in
  let loop_stack = ref [] in
  let handlers = ref [] in
  (* names bound as values in the enclosing lexical scopes *)
  let locals = ref SS.empty in
  let with_values names f =
    let saved = !locals in
    locals := SS.union saved (SS.of_list names);
    f ();
    locals := saved
  in
  (* the scope a [let] opens: a named function is a node of its own and
     shadows a value of its name; any other binding binds its
     pattern's variables as values *)
  let let_scope vbs =
    List.fold_left
      (fun s vb ->
         match (binding_name vb.pvb_pat, is_function_expr vb.pvb_expr) with
         | Some name, true -> SS.remove name s
         | _ -> SS.union s (SS.of_list (pattern_vars vb.pvb_pat)))
      !locals vbs
  in
  let new_fn ~path ~loc ~is_rec ~params =
    let f =
      { fn_path = path; fn_loc = loc; fn_rec = is_rec; fn_params = params;
        fn_polls = false; fn_calls = []; fn_raises = []; fn_loops = [] }
    in
    fns := f :: !fns;
    f
  in
  let fn () =
    match !current with
    | Some f -> f
    | None ->
      (* top-level effectful code outside any function binding *)
      let f =
        new_fn ~path:"<init>" ~loc:Location.none ~is_rec:false ~params:[]
      in
      current := Some f;
      f
  in
  let add_loop loc =
    let f = fn () in
    let l =
      { loop_loc = loc; enclosing = !cur_loop; nests = false;
        loop_poll = false }
    in
    let idx = List.length f.fn_loops in
    f.fn_loops <- l :: f.fn_loops;
    (match !loop_stack with
     | outer :: _ -> outer.nests <- true
     | [] -> ());
    l, idx
  in
  let mark_poll () =
    let f = fn () in
    f.fn_polls <- true;
    (* a poll inside a loop covers that loop and every enclosing one *)
    List.iter (fun l -> l.loop_poll <- true) !loop_stack
  in
  let add_call ~callee ~labels ~loc =
    let f = fn () in
    f.fn_calls <-
      { callee; labels; call_loc = loc; call_loop = !cur_loop;
        call_handlers = !handlers }
      :: f.fn_calls
  in
  let add_raise ~exn ~via ~loc =
    let f = fn () in
    f.fn_raises <-
      { exn; via; raise_loc = loc; raise_handlers = !handlers }
      :: f.fn_raises
  in
  let report_r9 loc what =
    if hot then
      report
        (Diagnostic.of_location ~file ~rule:Diagnostic.R9 loc
           (Printf.sprintf
              "%s allocated per iteration of an engine hot loop: hoist it \
               out of the loop or mark '(* lint: hot-alloc reason *)'"
              what))
  in
  (* seen by the fallback iterator so constructs without a dedicated
     case still recurse through [expr] *)
  let expr_ref = ref (fun (_ : expression) -> ()) in
  let fallback =
    { Ast_iterator.default_iterator with expr = (fun _ e -> !expr_ref e) }
  in
  let ident_use ~path ~loc ~labels =
    match (path, budget_poll path) with
    | [ x ], _ when SS.mem x !locals ->
      (* a local value, whatever function shares its name *)
      ()
    | _, Some raises ->
      mark_poll ();
      if raises then
        add_raise ~exn:Exhausted
          ~via:(String.concat "." (strip_stdlib path)) ~loc
    | _, None -> (
      (match stdlib_raiser path with
       | Some (exn, via) -> add_raise ~exn ~via ~loc
       | None -> ());
      (match allocating_combinator path with
       | Some what when !cur_loop >= 0 ->
         report_r9 loc (what ^ " (fresh structure)")
       | _ -> ());
      add_call ~callee:(strip_stdlib path) ~labels ~loc)
  in
  let rec expr e =
    match e.pexp_desc with
    | Pexp_let (rf, vbs, body) ->
      let saved = !locals in
      let inner = let_scope vbs in
      (match rf with
       | Asttypes.Recursive -> locals := inner
       | Asttypes.Nonrecursive -> ());
      List.iter (value_binding rf) vbs;
      locals := inner;
      expr body;
      locals := saved
    | Pexp_fun (_, default, param, fbody) ->
      if !cur_loop >= 0 then report_r9 e.pexp_loc "a closure";
      Option.iter expr default;
      with_values (pattern_vars param) (fun () -> expr fbody)
    | Pexp_function cases ->
      if !cur_loop >= 0 then report_r9 e.pexp_loc "a closure";
      List.iter case cases
    | Pexp_newtype (_, fbody) -> expr fbody
    | Pexp_for (index, lo, hi, _, body) ->
      (* bounds evaluate once, outside the loop context *)
      expr lo;
      expr hi;
      in_loop e.pexp_loc (fun () ->
          with_values (pattern_vars index) (fun () -> expr body))
    | Pexp_while (cond, body) ->
      in_loop e.pexp_loc (fun () ->
          expr cond;
          expr body)
    | Pexp_try (body, cases) ->
      let h = handler_of_patterns (guardfree_patterns cases) in
      let saved = !handlers in
      handlers := h :: saved;
      expr body;
      handlers := saved;
      List.iter case cases
    | Pexp_match (scrut, cases) -> (
      (* [match e with exception P -> ...] catches P around e; a
         literal tuple scrutinee ([match a, b with]) is matched in
         place without allocating, so its components are walked
         directly *)
      let exc =
        List.concat_map exception_subpatterns (guardfree_patterns cases)
      in
      (match exc with
       | [] -> expr_unboxed scrut
       | pats ->
         let h = handler_of_patterns pats in
         let saved = !handlers in
         handlers := h :: saved;
         expr_unboxed scrut;
         handlers := saved);
      List.iter case cases)
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
      apply ~path:(flatten txt) ~loc args;
      List.iter (fun (_, a) -> expr a) args
    | Pexp_ident { txt; loc } ->
      (* a bare reference: may be a function passed to a combinator —
         recorded as a call so higher-order raise/poll flow is kept *)
      ident_use ~path:(flatten txt) ~loc ~labels:[]
    | Pexp_tuple parts ->
      if !cur_loop >= 0 then report_r9 e.pexp_loc "a boxed tuple";
      List.iter expr parts
    | Pexp_construct ({ txt = Longident.Lident "Some"; _ }, Some arg) ->
      if !cur_loop >= 0 then report_r9 e.pexp_loc "an option";
      expr_unboxed arg
    | Pexp_construct (_, Some arg) ->
      (* a multi-argument constructor parses as one tuple argument,
         but allocates a single block — not a separate tuple *)
      expr_unboxed arg
    | _ -> Ast_iterator.default_iterator.expr fallback e
  and expr_unboxed e =
    (* positions where a literal tuple is part of the surrounding
       construct (constructor argument block, in-place match) rather
       than an allocation of its own *)
    match (strip_constraint e).pexp_desc with
    | Pexp_tuple parts -> List.iter expr parts
    | _ -> expr e
  and case c =
    with_values (pattern_vars c.pc_lhs) (fun () ->
        Option.iter expr c.pc_guard;
        expr c.pc_rhs)
  and in_loop loc body =
    let l, idx = add_loop loc in
    let saved = !cur_loop in
    cur_loop := idx;
    loop_stack := l :: !loop_stack;
    body ();
    (loop_stack :=
       match !loop_stack with _ :: rest -> rest | [] -> []);
    cur_loop := saved
  and apply ~path ~loc args =
    let labels =
      List.filter_map
        (fun (lbl, _) ->
           match lbl with
           | Asttypes.Labelled l | Asttypes.Optional l -> Some l
           | Asttypes.Nolabel -> None)
        args
    in
    match strip_stdlib path with
    | [ ("raise" | "raise_notrace") ] -> (
      match args with
      | (_, a) :: _ -> (
        match (strip_constraint a).pexp_desc with
        | Pexp_construct ({ txt; _ }, _) ->
          let cls = class_of_exn_path (flatten txt) in
          add_raise ~exn:cls ~via:("raise " ^ exn_class_name cls) ~loc
        | Pexp_ident _ ->
          (* re-raise of a bound exception value (Fun.protect-style
             passthrough): the classes flowing through are already
             accounted at their origin *)
          ()
        | _ -> add_raise ~exn:(Other "exn") ~via:"raise" ~loc)
      | [] -> ())
    | _ -> ident_use ~path ~loc ~labels
  and value_binding rf vb =
    match (binding_name vb.pvb_pat, is_function_expr vb.pvb_expr) with
    | Some name, true ->
      (* a named function: its own summary node, scoped under the
         enclosing function (if any) for bare-call resolution; the
         closure it allocates still counts for R9 when the definition
         sits inside a loop *)
      if !cur_loop >= 0 then
        report_r9 vb.pvb_loc ("a closure (local function '" ^ name ^ "')");
      let path =
        match !current with
        | Some f when not (String.equal f.fn_path "<init>") ->
          f.fn_path ^ "." ^ name
        | _ -> String.concat "." (List.rev (name :: !mod_prefix_rev))
      in
      let is_rec =
        match rf with
        | Asttypes.Recursive -> true
        | Asttypes.Nonrecursive -> false
      in
      let f =
        new_fn ~path ~loc:vb.pvb_loc ~is_rec
          ~params:(param_labels vb.pvb_expr)
      in
      let saved_fn = !current in
      let saved_loop = !cur_loop in
      let saved_stack = !loop_stack in
      let saved_handlers = !handlers in
      current := Some f;
      cur_loop := -1;
      loop_stack := [];
      handlers := [];
      expr vb.pvb_expr;
      current := saved_fn;
      cur_loop := saved_loop;
      loop_stack := saved_stack;
      handlers := saved_handlers
    | _ -> (
      (* [let x, y = a, b] compiles without building the tuple: walk
         the components directly so R9 does not flag it *)
      match (vb.pvb_pat.ppat_desc, (strip_constraint vb.pvb_expr).pexp_desc)
      with
      | Ppat_tuple _, Pexp_tuple parts -> List.iter expr parts
      | _ -> expr vb.pvb_expr)
  in
  expr_ref := expr;
  let rec structure items = List.iter structure_item items
  and structure_item item =
    match item.pstr_desc with
    | Pstr_value (rf, vbs) ->
      current := None;
      List.iter (value_binding rf) vbs;
      current := None
    | Pstr_module { pmb_name; pmb_expr; _ } -> (
      let name = Option.value ~default:"_" pmb_name.txt in
      match pmb_expr.pmod_desc with
      | Pmod_ident { txt; _ } -> aliases := (name, flatten txt) :: !aliases
      | _ -> module_expr name pmb_expr)
    | Pstr_recmodule mbs ->
      List.iter
        (fun mb ->
           module_expr (Option.value ~default:"_" mb.pmb_name.txt) mb.pmb_expr)
        mbs
    | Pstr_include { pincl_mod; _ } -> module_expr_anon pincl_mod
    | Pstr_eval (e, _) ->
      current := None;
      expr e;
      current := None
    | _ -> ()
  and module_expr name me =
    match me.pmod_desc with
    | Pmod_structure sub ->
      mod_prefix_rev := name :: !mod_prefix_rev;
      structure sub;
      (mod_prefix_rev :=
         match !mod_prefix_rev with _ :: rest -> rest | [] -> [])
    | Pmod_constraint (me, _) -> module_expr name me
    | Pmod_functor _ -> ()  (* summarised per application site, like R3 *)
    | _ -> ()
  and module_expr_anon me =
    match me.pmod_desc with
    | Pmod_structure sub -> structure sub
    | Pmod_constraint (me, _) -> module_expr_anon me
    | _ -> ()
  in
  structure str;
  let fns = List.rev !fns in
  (* loops were accumulated in reverse: restore definition order so
     [call_loop]/[enclosing] indices line up *)
  List.iter (fun f -> f.fn_loops <- List.rev f.fn_loops) fns;
  {
    sum_file = file;
    sum_in_lib = in_lib;
    sum_fns = fns;
    sum_aliases = !aliases;
  }
