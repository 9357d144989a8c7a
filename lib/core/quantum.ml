open Wlcq_graph
module Bigint = Wlcq_util.Bigint
module Budget = Wlcq_robust.Budget
module Rat = Wlcq_util.Rat

type term = { coeff : Rat.t; query : Cq.t }
type t = term list

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
  go m 0

let validate q =
  if not (Cq.is_connected q) then
    Error "quantum constituents must be connected"
  else if Cq.is_boolean q then
    Error "quantum constituents must have at least one free variable"
  else Ok ()

let make entries =
  let rec insert acc (coeff, query) =
    match acc with
    | [] -> [ { coeff; query } ]
    | t :: rest ->
      if Cq.isomorphic t.query query then
        { t with coeff = Rat.add t.coeff coeff } :: rest
      else t :: insert rest (coeff, query)
  in
  let rec go acc = function
    | [] ->
      Ok (List.filter (fun t -> not (Rat.is_zero t.coeff)) (List.rev acc))
    | (coeff, query) :: rest ->
      let core = Minimize.counting_core query in
      (match validate core with
       | Error e -> Error e
       | Ok () -> go (insert acc (coeff, core)) rest)
  in
  go [] entries

let make_exn entries =
  match make entries with
  | Ok q -> q
  | Error e -> invalid_arg ("Quantum.make: " ^ e)

let terms q = q

let evaluate ?budget q g =
  List.fold_left
    (fun acc t ->
       Rat.add acc
         (Rat.mul t.coeff
            (Rat.of_bigint (Fast_count.count_answers ?budget t.query g))))
    Rat.zero q

let hsew q =
  List.fold_left
    (fun acc t -> max acc (Extension.semantic_extension_width t.query))
    0 q

let wl_dimension = hsew

let conjoin q1 q2 =
  let k = Cq.num_free q1 in
  if Cq.num_free q2 <> k then
    invalid_arg "Quantum.conjoin: arity mismatch";
  let xs1 = Cq.free_vars q1 and xs2 = Cq.free_vars q2 in
  let ys1 = Cq.quantified_vars q1 and ys2 = Cq.quantified_vars q2 in
  let l1 = Array.length ys1 and l2 = Array.length ys2 in
  (* layout: free 0..k-1, then Y(q1), then Y(q2) *)
  let map1 = Hashtbl.create 16 and map2 = Hashtbl.create 16 in
  Array.iteri (fun p x -> Hashtbl.replace map1 x p) xs1;
  Array.iteri (fun p x -> Hashtbl.replace map2 x p) xs2;
  Array.iteri (fun j y -> Hashtbl.replace map1 y (k + j)) ys1;
  Array.iteri (fun j y -> Hashtbl.replace map2 y (k + l1 + j)) ys2;
  let edges = ref [] in
  Graph.iter_edges q1.Cq.graph (fun u v ->
      edges := (Hashtbl.find map1 u, Hashtbl.find map1 v) :: !edges);
  Graph.iter_edges q2.Cq.graph (fun u v ->
      edges := (Hashtbl.find map2 u, Hashtbl.find map2 v) :: !edges);
  let graph = Graph.create (k + l1 + l2) !edges in
  Cq.make graph (List.init k (fun i -> i))

let of_union qs =
  let k =
    match qs with
    | [] -> invalid_arg "Quantum.of_union: empty union"
    | q0 :: _ -> Cq.num_free q0
  in
  List.iter
    (fun q ->
       if Cq.num_free q <> k then
         invalid_arg "Quantum.of_union: arity mismatch")
    qs;
  if k = 0 then invalid_arg "Quantum.of_union: queries must have free variables";
  let qs = Array.of_list qs in
  let m = Array.length qs in
  let entries = ref [] in
  (* inclusion–exclusion over non-empty subsets *)
  for mask = 1 to (1 lsl m) - 1 do
    let chosen = ref [] in
    for i = m - 1 downto 0 do
      if (mask lsr i) land 1 = 1 then chosen := qs.(i) :: !chosen
    done;
    let conj =
      match !chosen with
      | [] -> assert false
      | first :: rest -> List.fold_left conjoin first rest
    in
    let sign = if popcount mask mod 2 = 1 then Rat.one else Rat.neg Rat.one in
    (* lint: hot-alloc inclusion–exclusion constructor: the (sign, conj) terms are the output *)
    entries := (sign, conj) :: !entries
  done;
  make_exn (List.rev !entries)

(* Signed Stirling numbers of the first kind:
   s(n, m) = s(n-1, m-1) - (n-1)·s(n-1, m). *)
let stirling_first k =
  let s = Array.make_matrix (k + 1) (k + 1) Rat.zero in
  s.(0).(0) <- Rat.one;
  for n = 1 to k do
    for m = 1 to n do
      s.(n).(m) <-
        Rat.sub s.(n - 1).(m - 1) (Rat.mul (Rat.of_int (n - 1)) s.(n - 1).(m))
    done
  done;
  s.(k)

let injective_star k =
  if k < 1 then invalid_arg "Quantum.injective_star: k must be positive";
  let coeffs = stirling_first k in
  make_exn (List.init k (fun i -> (coeffs.(i + 1), Star.query (i + 1))))

(* Möbius function of the partition lattice from the discrete partition
   to the one with [size.(b)] positions in block b:
   Π_B (-1)^(|B|-1)(|B|-1)! *)
let moebius size =
  Array.fold_left
    (fun acc b ->
       let fact = Bigint.factorial (b - 1) in
       Bigint.mul acc (if b mod 2 = 0 then Bigint.neg fact else fact))
    Bigint.one size

(* [iter_injective_terms q f] calls [f μ(ρ) (q/ρ)] for each partition ρ
   of X's positions whose quotient has no self-loop atom.  The answers
   of q/ρ are those of q constant on ρ's blocks, so inverting over the
   partition lattice leaves the injective ones.  The partitions are
   walked as restricted growth strings (position p joins a block opened
   before it or opens the next), so none is materialised: there are
   Bell(|X|) of them. *)
let iter_injective_terms q f =
  let h = q.Cq.graph in
  let xs = Cq.free_vars q and ys = Cq.quantified_vars q in
  let k = Array.length xs in
  let block = Array.make k 0 in
  (* free position p goes to class block.(p), each quantified variable
     to a class of its own *)
  let cls = Array.make (Graph.num_vertices h) 0 in
  let rec walk p blocks =
    if p = k then begin
      let size = Array.make blocks 0 in
      Array.iteri
        (fun i x ->
           cls.(x) <- block.(i);
           size.(block.(i)) <- size.(block.(i)) + 1)
        xs;
      Array.iteri (fun j y -> cls.(y) <- blocks + j) ys;
      match Ops.quotient h cls with
      | quotiented ->
        f (moebius size) (Cq.make quotiented (List.init blocks (fun i -> i)))
      | exception Invalid_argument _ -> ()
    end
    else
      for b = 0 to blocks do
        block.(p) <- b;
        walk (p + 1) (max blocks (b + 1))
      done
  in
  walk 0 0

let injective_expansion q =
  if not (Cq.is_connected q) then
    invalid_arg "Quantum.injective_expansion: query must be connected";
  if Cq.is_boolean q then
    invalid_arg "Quantum.injective_expansion: query must have free variables";
  let entries = ref [] in
  iter_injective_terms q (fun mu quotiented ->
      entries := (Rat.of_bigint mu, quotiented) :: !entries);
  make_exn (List.rev !entries)

let count_injective_answers ?(budget = Budget.unlimited) q g =
  let total = ref Bigint.zero in
  iter_injective_terms q (fun mu quotiented ->
      (* one tick per term: a term on a tiny host may not tick at all *)
      Budget.tick_check budget;
      total :=
        Bigint.add !total
          (Bigint.mul mu (Fast_count.count_answers ~budget quotiented g)));
  !total

let with_free_negations q pairs =
  let k = Cq.num_free q in
  let xs = Cq.free_vars q in
  List.iter
    (fun (a, b) ->
       if a < 0 || a >= k || b < 0 || b >= k then
         invalid_arg "Quantum.with_free_negations: position out of range";
       if a = b then
         invalid_arg "Quantum.with_free_negations: diagonal pair")
    pairs;
  let pairs = Array.of_list pairs in
  let m = Array.length pairs in
  let entries = ref [] in
  for mask = 0 to (1 lsl m) - 1 do
    let extra = ref [] in
    Array.iteri
      (fun i (a, b) -> (* lint: hot-alloc constructor: one edge list per subset of negated pairs, consumed by the query it defines *)
         if (mask lsr i) land 1 = 1 then extra := (xs.(a), xs.(b)) :: !extra)
      pairs;
    let sign = if popcount mask mod 2 = 0 then Rat.one else Rat.neg Rat.one in
    let graph = Ops.add_edges q.Cq.graph !extra in
    let query = Cq.make graph (Array.to_list xs) in (* lint: hot-alloc constructor: each subset's (sign, query) term is the output *)
    entries := (sign, query) :: !entries
  done;
  make_exn (List.rev !entries)

let lower_bound_witness ?(max_tensor_size = 3) q =
  (* constituent attaining hsew *)
  let k = hsew q in
  match List.find_opt (fun t -> Extension.semantic_extension_width t.query = k) q with
  | None -> None
  | Some top ->
    (match Wl_dimension.separating_pair ~max_z:2 top.query with
     | exception Invalid_argument _ -> None
     | None -> None
     | Some (g, g') ->
       let separated a b = not (Rat.equal (evaluate q a) (evaluate q b)) in
       if separated g g' then Some (g, g')
       else begin
         (* tensor with small graphs H, as in the Corollary 5 proof *)
         let result = ref None in
         (try
            for n = 1 to max_tensor_size do
              let pairs = ref [] in
              for u = 0 to n - 1 do
                (* lint: hot-alloc vertex pairs of one tensor factor, n ≤ max_tensor_size *)
                for v = u + 1 to n - 1 do pairs := (u, v) :: !pairs done
              done;
              (* lint: hot-alloc flattened once per tensor size, not per mask *)
              let pairs = Array.of_list !pairs in
              let m = Array.length pairs in
              for mask = 0 to (1 lsl m) - 1 do
                let edges = ref [] in
                Array.iteri
                  (* lint: hot-alloc witness search over tensor masks: the
                     graphs built from each edge list dominate these cells *)
                  (fun i e ->
                     if (mask lsr i) land 1 = 1 then edges := e :: !edges)
                  pairs;
                let h = Graph.create n !edges in
                let a = Ops.tensor_product g h in
                let b = Ops.tensor_product g' h in
                if separated a b then begin
                  (* lint: hot-alloc witness found: allocated once on exit *)
                  result := Some (a, b);
                  raise Exit
                end
              done
            done
          with Exit -> ());
         !result
       end)

let pp ppf q =
  let first = ref true in
  List.iter
    (fun t ->
       if not !first then Format.fprintf ppf " + ";
       first := false;
       Format.fprintf ppf "%a·%a" Rat.pp t.coeff Cq.pp t.query)
    q;
  if !first then Format.fprintf ppf "0"
