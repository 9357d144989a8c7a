(* Monomorphic comparison and hashing combinators.

   The lint pass (tools/lint, rule R1) bans polymorphic [=], [compare]
   and [Hashtbl.hash] on structured values; this module supplies the
   sanctioned building blocks.  Everything here is total and
   allocation-free except where the underlying structure forces it. *)

let pair ca cb (a1, b1) (a2, b2) =
  let c = ca a1 a2 in
  if c <> 0 then c else cb b1 b2

let triple ca cb cc (a1, b1, c1) (a2, b2, c2) =
  let c = ca a1 a2 in
  if c <> 0 then c
  else
    let c = cb b1 b2 in
    if c <> 0 then c else cc c1 c2

let array cmp a1 a2 =
  let n1 = Array.length a1 and n2 = Array.length a2 in
  let c = Int.compare n1 n2 in
  if c <> 0 then c
  else
    let rec go i =
      if i = n1 then 0
      else
        let c = cmp a1.(i) a2.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let int_pair p1 p2 = pair Int.compare Int.compare p1 p2
let int_triple t1 t2 = triple Int.compare Int.compare Int.compare t1 t2
let int_list l1 l2 = List.compare Int.compare l1 l2
let int_array a1 a2 = array Int.compare a1 a2

let equal_pair ea eb (a1, b1) (a2, b2) = ea a1 a2 && eb b1 b2

let equal_array eq a1 a2 =
  Array.length a1 = Array.length a2 && Array.for_all2 eq a1 a2

(* SplitMix-style mixer, same constants as the WL signature hashing in
   [Wlcq_wl.Kwl]; results stay non-negative for Hashtbl use. *)
let hash_mix h x =
  let h = (h lxor x) * 0x9E3779B97F4A7C1 in
  let h = h lxor (h lsr 29) in
  (h * 0xBF58476D1CE4E5B) land max_int

let hash_int x = hash_mix 0x27220A95 x
let hash_int_pair (a, b) = hash_mix (hash_mix 0x27220A95 a) b

let hash_int_list l =
  List.fold_left (fun h x -> hash_mix h x) (hash_mix 0x27220A95 7) l

let hash_int_array a =
  Array.fold_left (fun h x -> hash_mix h x) (hash_mix 0x27220A95 11) a

let hash_fold = hash_mix

module Int_pair_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a1, b1) (a2, b2) = Int.equal a1 a2 && Int.equal b1 b2
  let hash = hash_int_pair
end)

module Int_list_tbl = Hashtbl.Make (struct
  type t = int list

  let equal l1 l2 = List.equal Int.equal l1 l2
  let hash = hash_int_list
end)

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = hash_int
end)

module Int_array_tbl = Hashtbl.Make (struct
  type t = int array

  let equal a b = equal_array Int.equal a b
  let hash = hash_int_array
end)
