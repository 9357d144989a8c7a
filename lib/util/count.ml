(* Overflow-checked counter arithmetic: native ints until a sum or
   product would overflow, then arbitrary precision.

   The counting DPs (Td_count / Fast_count) multiply and
   add sub-counts; almost every intermediate fits comfortably in 63
   bits, but the final counts (and adversarial instances) do not.
   Running the whole DP on Bigint costs a limb-array allocation per
   table operation.  This module keeps values as immediate ints on the
   fast path and promotes to Bigint only when an overflow check fails.

   Counts are non-negative throughout the codebase; the fast paths
   below assume it and route any negative operand through the exact
   Bigint arithmetic, so results are correct for arbitrary signs —
   negatives just never see the fast path. *)

type t = Small of int | Big of Bigint.t

let zero = Small 0
let one = Small 1
let of_int n = Small n

let of_bigint b =
  match Bigint.to_int_opt b with Some n -> Small n | None -> Big b

let to_bigint = function Small n -> Bigint.of_int n | Big b -> b
let is_zero = function Small n -> n = 0 | Big b -> Bigint.is_zero b

(* True exactly on the unpromoted representation; the promotion-rate
   metrics of the counting engines are computed from this. *)
let is_small = function Small _ -> true | Big _ -> false

let add a b =
  match (a, b) with
  | Small 0, c | c, Small 0 -> c
  | Small x, Small y when x >= 0 && y >= 0 ->
    let s = x + y in
    if s >= 0 then Small s
    else Big (Bigint.add (Bigint.of_int x) (Bigint.of_int y))
  | _ -> of_bigint (Bigint.add (to_bigint a) (to_bigint b))

let mul a b =
  match (a, b) with
  | Small 0, _ | _, Small 0 -> Small 0
  | Small 1, c | c, Small 1 -> c
  | Small x, Small y when x > 0 && y > 0 ->
    if x <= max_int / y then Small (x * y)
    else Big (Bigint.mul (Bigint.of_int x) (Bigint.of_int y))
  | _ -> of_bigint (Bigint.mul (to_bigint a) (to_bigint b))

let equal a b =
  match (a, b) with
  | Small x, Small y -> Int.equal x y
  | _ -> Bigint.equal (to_bigint a) (to_bigint b)

let compare a b =
  match (a, b) with
  | Small x, Small y -> Int.compare x y
  | _ -> Bigint.compare (to_bigint a) (to_bigint b)

let to_string = function
  | Small n -> string_of_int n
  | Big b -> Bigint.to_string b

let pp ppf c = Format.pp_print_string ppf (to_string c)
