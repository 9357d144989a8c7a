(* Packed bitsets: 62 bits per word keeps all shifts well inside the
   63-bit native int range on 64-bit platforms. *)

let bits_per_word = 62

type t = { n : int; words : int array }

let nwords n = (n + bits_per_word - 1) / bits_per_word

(* A one-word set (every row of a graph of at most 62 vertices) is
   allocated inline; [Array.make] is a C call that costs several times
   more. *)
let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  let nw = nwords n in
  { n; words = (if nw <= 1 then [| 0 |] else Array.make nw 0) }

let capacity s = s.n

let copy s = { n = s.n; words = Array.copy s.words }

let check s i =
  if i < 0 || i >= s.n then invalid_arg "Bitset.check: index out of range"

let mem s i =
  check s i;
  s.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let set s i =
  check s i;
  let w = i / bits_per_word in
  s.words.(w) <- s.words.(w) lor (1 lsl (i mod bits_per_word))

let clear s i =
  check s i;
  let w = i / bits_per_word in
  s.words.(w) <- s.words.(w) land lnot (1 lsl (i mod bits_per_word))

let add s i = let s' = copy s in set s' i; s'
let remove s i = let s' = copy s in clear s' i; s'

let singleton n i = let s = create n in set s i; s

(* Mask of valid bits in the last word, so [complement] and [full] never
   set bits beyond the universe. *)
let last_mask n =
  let r = n mod bits_per_word in
  if r = 0 && n > 0 then -1 lsr (63 - bits_per_word)
  else (1 lsl r) - 1

let full n =
  let s = create n in
  if n > 0 then begin
    let k = nwords n in
    for w = 0 to k - 2 do s.words.(w) <- -1 lsr (63 - bits_per_word) done;
    s.words.(k - 1) <- last_mask n
  end;
  s

let of_list n xs = let s = create n in List.iter (set s) xs; s

let same_capacity a b =
  if a.n <> b.n then invalid_arg "Bitset.same_capacity: capacity mismatch"

let map2 f a b =
  same_capacity a b;
  let words = Array.init (Array.length a.words)
      (fun i -> f a.words.(i) b.words.(i)) in
  { n = a.n; words }

let union a b = map2 (lor) a b
let inter a b = map2 (land) a b
let diff a b = map2 (fun x y -> x land lnot y) a b
let symdiff a b = map2 (lxor) a b

let complement s =
  let s' = full s.n in
  { n = s.n;
    words = Array.init (Array.length s.words)
        (fun i -> s'.words.(i) land lnot s.words.(i)) }

let subset a b =
  same_capacity a b;
  let ok = ref true in
  Array.iteri (fun i w -> if w land lnot b.words.(i) <> 0 then ok := false)
    a.words;
  !ok

let disjoint a b =
  same_capacity a b;
  let ok = ref true in
  Array.iteri (fun i w -> if w land b.words.(i) <> 0 then ok := false) a.words;
  !ok

let equal a b = a.n = b.n && a.words = b.words

let compare a b =
  let c = Stdlib.compare a.n b.n in
  if c <> 0 then c else Stdlib.compare a.words b.words

(* SWAR popcount of one word: pair, nibble and byte sums.  A word has
   at most 62 bits set, so the byte total fits the top byte that the
   63-bit multiply keeps. *)
let popcount w =
  let w = w - ((w lsr 1) land 0x1555_5555_5555_5555) in
  let w = (w land 0x3333_3333_3333_3333) + ((w lsr 2) land 0x3333_3333_3333_3333) in
  let w = (w + (w lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (w * 0x0101_0101_0101_0101) lsr 56

let cardinal s =
  let c = ref 0 in
  for i = 0 to Array.length s.words - 1 do
    c := !c + popcount s.words.(i)
  done;
  !c

let is_empty s = Array.for_all (fun w -> w = 0) s.words

(* [b - 1] holds exactly the bits below a word's lowest set bit [b],
   so [popcount (b - 1)] is that member's index: O(1) per member,
   wherever it sits in its word. *)
let iter f s =
  (* lint: allow R7 one iteration per word of the set *)
  for w = 0 to Array.length s.words - 1 do
    let word = ref s.words.(w) in
    while !word <> 0 do
      let b = !word land (- !word) in
      f ((w * bits_per_word) + popcount (b - 1));
      word := !word lxor b
    done
  done

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let to_list s = List.rev (fold (fun i acc -> i :: acc) s [])

exception Early_exit

let for_all p s =
  try iter (fun i -> if not (p i) then raise Early_exit) s; true
  with Early_exit -> false

let exists p s =
  try iter (fun i -> if p i then raise Early_exit) s; false
  with Early_exit -> true

let choose s =
  let r = ref (-1) in
  (try iter (fun i -> r := i; raise Early_exit) s with Early_exit -> ());
  if !r < 0 then raise Not_found else !r

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Format.pp_print_int)
    (to_list s)

let hash s = Array.fold_left Ordering.hash_mix (Ordering.hash_int s.n) s.words
