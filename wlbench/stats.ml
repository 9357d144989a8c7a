(* Order statistics over float samples. *)

(* [quantile a q]: linear interpolation between closest ranks
   (R type 7, as numpy's default), [nan] on an empty sample. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let s = Array.copy a in
    Array.sort Float.compare s;
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))
  end

let median a = quantile a 0.5

(* 0 on an empty sample, so a layer absent from a run reads 0 *)
let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* A growable float buffer, so the generator's hot path never builds
   lists. *)
type buf = { mutable data : float array; mutable len : int }

let buf () = { data = Array.make 1024 0.0; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0.0 in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len
