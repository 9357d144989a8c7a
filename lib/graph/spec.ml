let describe =
  "graph specs: path:N | cycle:N | clique:N | star:N | bipartite:A,B | \
   grid:A,B | hypercube:D | wheel:N | matching:K | petersen | twotriangles \
   | gnp:N,P,SEED | g6:STRING (graph6) | \"N; u-v u-v ...\" (explicit edge \
   list)"

(* A spec is a few bytes and a daemon accepts it off the wire, so its
   size is checked before anything is allocated.  A graph's adjacency
   rows cost n·⌈n/62⌉ words: 2^14 vertices keep them near 4.3M words
   (35 MB), where "1000000; 0-1" alone would ask for 1.6·10^10.  The
   builders of clique, bipartite and gnp visit every vertex pair, and
   2^22 pairs keep one such build in the tens of milliseconds.  A
   family's size counts what its builder allocates and what its loops
   visit, so a negative argument cannot hide work behind a small
   product or sum.  Sizes are compared as floats, so no product of
   parsed integers overflows on the way. *)
let max_vertices = 1 lsl 14
let max_pairs = 1 lsl 22

let sized ~vertices ?(pairs = 0.0) build =
  let limit what n =
    Error (Printf.sprintf "graph spec exceeds the limit of %d %s" n what)
  in
  if vertices > float_of_int max_vertices then limit "vertices" max_vertices
  else if pairs > float_of_int max_pairs then limit "vertex pairs" max_pairs
  else try Ok (build ()) with Invalid_argument msg -> Error msg

(* the vertex pairs of an [n]-clique *)
let clique_pairs n =
  if n > 1 then float_of_int n *. float_of_int (n - 1) /. 2.0 else 0.0

let int_of s = int_of_string_opt (String.trim s)

let parse_named name args =
  let ints () = List.filter_map int_of (String.split_on_char ',' args) in
  let f = float_of_int in
  match (name, ints ()) with
  | "path", [ n ] -> sized ~vertices:(f n) (fun () -> Builders.path n)
  | "cycle", [ n ] when n >= 3 ->
    sized ~vertices:(f n) (fun () -> Builders.cycle n)
  | "clique", [ n ] ->
    sized ~vertices:(f n) ~pairs:(clique_pairs n) (fun () -> Builders.clique n)
  | "star", [ n ] -> sized ~vertices:(f n +. 1.0) (fun () -> Builders.star n)
  | "bipartite", [ a; b ] ->
    let a' = f (max a 0) and b' = f (max b 0) in
    sized ~vertices:(a' +. b') ~pairs:(a' *. b') (fun () ->
        Builders.complete_bipartite a b)
  | "grid", [ a; b ] ->
    sized
      ~vertices:(Float.max (f a *. f b) (f (max a 1) *. f (max b 1)))
      (fun () -> Builders.grid a b)
  | "hypercube", [ d ] ->
    sized ~vertices:(Float.ldexp 1.0 d) (fun () -> Builders.hypercube d)
  | "wheel", [ n ] when n >= 3 ->
    sized ~vertices:(f n +. 1.0) (fun () -> Builders.wheel n)
  | "matching", [ k ] ->
    sized ~vertices:(2.0 *. f k) (fun () -> Builders.matching k)
  | "gnp", _ ->
    (match String.split_on_char ',' args with
     | [ n; p; seed ] ->
       (match (int_of n, float_of_string_opt (String.trim p), int_of seed)
        with
        | Some n, Some p, Some seed ->
          sized ~vertices:(f n) ~pairs:(clique_pairs n) (fun () ->
              Gen.gnp (Wlcq_util.Prng.create seed) n p)
        | _ -> Error "gnp expects gnp:N,P,SEED")
     | _ -> Error "gnp expects gnp:N,P,SEED")
  | _ -> Error (Printf.sprintf "unknown graph family %S or bad arguments" name)

(* Edge lists are scanned in place over index ranges of the spec: no
   token strings, no edge list, no endpoint array.  A token is a
   maximal run of non-space characters; it must be [u-v] with exactly
   one '-'. *)

(* the decimal digits [s.[i .. q-1]] read onto [acc]; -1 at a
   non-digit *)
let rec decimal s q i acc =
  if i = q then acc
  else
    match s.[i] with
    | '0' .. '9' as c -> decimal s q (i + 1) ((acc * 10) + Char.code c - 48)
    | _ -> -1

(* The integer spelt by [s.[p .. q-1]].  A plain decimal of at most 18
   digits (below [max_int]) is read in place; anything else goes
   through [int_of_string_opt] on the trimmed piece, so the accepted
   language is OCaml's.  Raises [Exit] when the piece is no number. *)
let number s p q =
  let v = if q > p && q - p <= 18 then decimal s q p 0 else -1 in
  if v >= 0 then v
  else
    match int_of_string_opt (String.trim (String.sub s p (q - p))) with
    | Some v -> v
    | None -> raise Exit

(* Raised by [iter_edges] at the first malformed token [s.[a .. b-1]]. *)
exception Bad_edge of int * int

(* the token [s.[a .. b-1]] off the plain-decimal path: exactly one
   '-' between two numbers, each read by [number] *)
let odd_token s a b add =
  let dash = ref (-1) and dashes = ref 0 in
  for i = a to b - 1 do
    if s.[i] = '-' then begin
      dash := i;
      incr dashes
    end
  done;
  if !dashes <> 1 then raise (Bad_edge (a, b));
  match (number s a !dash, number s (!dash + 1) b) with
  | u, v -> add u v
  | exception Exit -> raise (Bad_edge (a, b))

(* [iter_edges s lo hi add] calls [add u v] for each token of
   [s.[lo .. hi-1]], in order.  A token of plain decimals [u-v] is read
   in the one pass that finds its end; any other token goes through
   [odd_token]. *)
let iter_edges s lo hi add =
  let i = ref lo in
  while !i < hi do
    if s.[!i] = ' ' then incr i
    else begin
      let a = !i and u = ref 0 and v = ref 0 and dash = ref (-1) in
      let plain = ref true in
      while !i < hi && s.[!i] <> ' ' do
        (match s.[!i] with
         | '0' .. '9' as c ->
           let d = Char.code c - 48 in
           if !dash < 0 then u := (!u * 10) + d else v := (!v * 10) + d
         | '-' when !dash < 0 -> dash := !i
         | _ -> plain := false);
        incr i
      done;
      (* both sides 1 to 18 digits, so neither overflowed *)
      let b = !i and d = !dash in
      if !plain && d > a && d - a <= 18 && b - d > 1 && b - d <= 19 then
        add !u !v
      else odd_token s a b add
    end
  done

let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* Pass one reads the vertex count and checks every token; pass two
   fills the rows.  So the errors come in the list-based parser's
   order: the count, the first bad token, the size, then
   [Graph.create]'s range and self-loop checks in edge order. *)
let parse_edge_list s semi =
  match number s 0 semi with
  | exception Exit -> Error "edge list must start with the vertex count"
  | n -> (
    (* the edges are [s] past the ';', trimmed ([s] itself is) *)
    let lo = ref (semi + 1) and hi = String.length s in
    while !lo < hi && is_space s.[!lo] do incr lo done;
    let lo = !lo in
    match iter_edges s lo hi (fun _ _ -> ()) with
    | exception Bad_edge (a, b) ->
      Error (Printf.sprintf "bad edge %S" (String.sub s a (b - a)))
    | () ->
      sized ~vertices:(float_of_int n) (fun () ->
          Graph.init n (iter_edges s lo hi)))

let parse s =
  let s = String.trim s in
  if String.equal s "" then Error "empty graph spec"
  else
    match String.index_opt s ';' with
    | Some semi -> parse_edge_list s semi
    | None -> (
      match String.index_opt s ':' with
      | None -> (
        match s with
        | "petersen" -> Ok (Builders.petersen ())
        | "twotriangles" -> Ok (Builders.two_triangles ())
        | _ -> Error (Printf.sprintf "unknown graph %S (%s)" s describe))
      | Some i ->
        let name = String.sub s 0 i in
        let args = String.sub s (i + 1) (String.length s - i - 1) in
        if String.equal name "g6" then
          (* the payload spells all n(n-1)/2 pairs, so the spec's own
             length bounds the build *)
          try Ok (Graph6.decode args) with Invalid_argument msg -> Error msg
        else parse_named name args)
