(* Sign/magnitude representation; magnitude is a little-endian array of
   base-10^9 limbs with no trailing zero limb.  Zero is [{ sign = 0;
   mag = [||] }]. *)

let base = 1_000_000_000
let base_digits = 9

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

let normalize sign mag =
  let len = ref (Array.length mag) in
  while !len > 0 && mag.(!len - 1) = 0 do decr len done;
  if !len = 0 then zero
  else if !len = Array.length mag then { sign; mag }
  else { sign; mag = Array.sub mag 0 !len }

(* A value below [base] is one limb: built directly, without the limb
   list of the general path. *)
let of_int n =
  if n = 0 then zero
  else if n > 0 && n < base then { sign = 1; mag = [| n |] }
  else begin
    let sign = if n > 0 then 1 else -1 in
    (* min_int negation is safe limb-by-limb via mod on the running
       value, using the absolute value of each remainder. *)
    (* lint: allow R7 bounded by the limb count of a native int *)
    let rec limbs n acc =
      if n = 0 then List.rev acc
      else limbs (n / base) (Stdlib.abs (n mod base) :: acc)
    in
    { sign; mag = Array.of_list (limbs n []) }
  end

let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)

let sign x = x.sign
let is_zero x = x.sign = 0

let neg x = if x.sign = 0 then x else { x with sign = - x.sign }
let abs x = if x.sign < 0 then neg x else x

(* Magnitude comparison: -1, 0, 1. *)
let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then cmp_mag a.mag b.mag
  else cmp_mag b.mag a.mag

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let l = Stdlib.max la lb in
  let r = Array.make (l + 1) 0 in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let s = (if i < la then a.(i) else 0)
            + (if i < lb then b.(i) else 0) + !carry in
    if s >= base then (r.(i) <- s - base; carry := 1)
    else (r.(i) <- s; carry := 0)
  done;
  r.(l) <- !carry;
  r

(* Requires |a| >= |b|. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then (r.(i) <- s + base; borrow := 1)
    else (r.(i) <- s; borrow := 0)
  done;
  assert (!borrow = 0);
  r

let rec add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
  else
    match cmp_mag a.mag b.mag with
    | 0 -> zero
    | c when c > 0 -> normalize a.sign (sub_mag a.mag b.mag)
    | _ -> normalize b.sign (sub_mag b.mag a.mag)

and sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else begin
    let la = Array.length a.mag and lb = Array.length b.mag in
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.mag.(i) in
      for j = 0 to lb - 1 do
        let cur = r.(i + j) + (ai * b.mag.(j)) + !carry in
        r.(i + j) <- cur mod base;
        carry := cur / base
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let cur = r.(!k) + !carry in
        r.(!k) <- cur mod base;
        carry := cur / base;
        incr k
      done
    done;
    normalize (a.sign * b.sign) r
  end

(* Multiply a magnitude by a small non-negative int (< base). *)
let mul_mag_small a d =
  if d = 0 then [||]
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let cur = (a.(i) * d) + !carry in
      r.(i) <- cur mod base;
      carry := cur / base
    done;
    r.(la) <- !carry;
    r
  end

(* Long division of magnitudes: processes limbs of [a] from most
   significant, maintaining the running remainder as a magnitude and
   finding each quotient limb by binary search over [0, base).  The
   numbers in this code base stay within a few hundred limbs, for which
   this O(limbs^2 log base) schoolbook scheme is ample. *)
let divmod_mag a b =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref [||] in
  let shift_in rem d =
    (* rem * base + d *)
    let lr = Array.length rem in
    if lr = 0 && d = 0 then [||]
    else begin
      let out = Array.make (lr + 1) 0 in
      out.(0) <- d;
      Array.blit rem 0 out 1 lr;
      (* strip possible leading zero *)
      let len = ref (lr + 1) in
      while !len > 0 && out.(!len - 1) = 0 do decr len done;
      Array.sub out 0 !len
    end
  in
  for i = la - 1 downto 0 do
    r := shift_in !r a.(i);
    (* binary search for the largest d with d*b <= r *)
    let lo = ref 0 and hi = ref (base - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      let prod = mul_mag_small b mid in
      if cmp_mag (normalize 1 prod).mag !r <= 0 then lo := mid
      else hi := mid - 1
    done;
    q.(i) <- !lo;
    if !lo > 0 then
      r := (normalize 1 (sub_mag !r (normalize 1 (mul_mag_small b !lo)).mag)).mag
  done;
  (q, !r)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  if a.sign = 0 then (zero, zero)
  else if cmp_mag a.mag b.mag < 0 then (zero, a)
  else begin
    let q_mag, r_mag = divmod_mag a.mag b.mag in
    let q = normalize (a.sign * b.sign) q_mag in
    let r = normalize a.sign r_mag in
    (q, r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let rec pow x k =
  if k < 0 then invalid_arg "Bigint.pow: negative exponent"
  else if k = 0 then one
  else begin
    let h = pow x (k / 2) in
    let h2 = mul h h in
    if k mod 2 = 0 then h2 else mul h2 x
  end

let rec gcd a b =
  let a = abs a and b = abs b in
  if is_zero b then a else gcd b (rem a b)

let factorial k =
  if k < 0 then invalid_arg "Bigint.factorial: negative argument";
  let acc = ref one in
  for i = 2 to k do acc := mul !acc (of_int i) done;
  !acc

let binomial n k =
  if k < 0 || k > n then zero
  else begin
    let k = Stdlib.min k (n - k) in
    let acc = ref one in
    for i = 0 to k - 1 do
      acc := div (mul !acc (of_int (n - i))) (of_int (i + 1))
    done;
    !acc
  end

let succ x = add x one
let pred x = sub x one

let to_string x =
  if x.sign = 0 then "0"
  else begin
    let buf = Buffer.create 16 in
    if x.sign < 0 then Buffer.add_char buf '-';
    let l = Array.length x.mag in
    Buffer.add_string buf (string_of_int x.mag.(l - 1));
    for i = l - 2 downto 0 do
      Buffer.add_string buf (Printf.sprintf "%0*d" base_digits x.mag.(i))
    done;
    Buffer.contents buf
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let sign, start =
    match s.[0] with
    | '-' -> (-1, 1)
    | '+' -> (1, 1)
    | _ -> (1, 0)
  in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  String.iteri
    (fun i c ->
       if i >= start && not (c >= '0' && c <= '9') then
         invalid_arg "Bigint.of_string: invalid character")
    s;
  let ndigits = len - start in
  let nlimbs = (ndigits + base_digits - 1) / base_digits in
  let mag = Array.make nlimbs 0 in
  (* Consume 9-digit chunks from the right. *)
  let pos = ref len in
  for limb = 0 to nlimbs - 1 do
    let lo = Stdlib.max start (!pos - base_digits) in
    mag.(limb) <- int_of_string (String.sub s lo (!pos - lo));
    pos := lo
  done;
  normalize sign mag

let to_int_opt x =
  (* max_int has 19 decimal digits; accept up to 3 limbs and check by
     reconstruction. *)
  if Array.length x.mag > 3 then None
  else begin
    let v = Array.fold_right (fun limb acc -> (acc * base) + limb) x.mag 0 in
    let v = if x.sign < 0 then -v else v in
    if equal (of_int v) x then Some v else None
  end

let pp ppf x = Format.pp_print_string ppf (to_string x)
let hash x = Array.fold_left Ordering.hash_mix (Ordering.hash_int x.sign) x.mag

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end
