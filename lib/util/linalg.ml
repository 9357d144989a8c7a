type matrix = Rat.t array array

let dims a =
  let m = Array.length a in
  let n = if m = 0 then 0 else Array.length a.(0) in
  Array.iter
    (fun row ->
       if Array.length row <> n then failwith "Linalg.dims: ragged matrix")
    a;
  (m, n)

let copy_matrix a = Array.map Array.copy a

(* Forward elimination with partial (first non-zero) pivoting; returns
   the echelon form, the permutation sign, and the pivot columns. *)
let echelon a =
  let a = copy_matrix a in
  let m, n = dims a in
  let sign = ref 1 in
  let pivots = ref [] in
  let row = ref 0 in
  let col = ref 0 in
  while !row < m && !col < n do
    (* find pivot in column !col at or below !row *)
    let p = ref (-1) in
    (try
       for i = !row to m - 1 do
         if not (Rat.is_zero a.(i).(!col)) then (p := i; raise Exit)
       done
     with Exit -> ());
    if !p < 0 then incr col
    else begin
      if !p <> !row then begin
        let tmp = a.(!p) in
        a.(!p) <- a.(!row);
        a.(!row) <- tmp;
        sign := - !sign
      end;
      pivots := (!row, !col) :: !pivots;
      for i = !row + 1 to m - 1 do
        if not (Rat.is_zero a.(i).(!col)) then begin
          let f = Rat.div a.(i).(!col) a.(!row).(!col) in
          for j = !col to n - 1 do
            a.(i).(j) <- Rat.sub a.(i).(j) (Rat.mul f a.(!row).(j))
          done
        end
      done;
      incr row;
      incr col
    end
  done;
  (a, !sign, List.rev !pivots)

let rank a =
  let _, _, pivots = echelon a in
  List.length pivots

let determinant a =
  let m, n = dims a in
  if m <> n then failwith "Linalg.determinant: non-square matrix";
  let e, sign, pivots = echelon a in
  if List.length pivots < n then Rat.zero
  else begin
    let d = ref (Rat.of_int sign) in
    for i = 0 to n - 1 do d := Rat.mul !d e.(i).(i) done;
    !d
  end

let solve a b =
  let m, n = dims a in
  if m <> n then failwith "Linalg.solve: non-square matrix";
  if Array.length b <> m then failwith "Linalg.solve: dimension mismatch";
  (* Augment, eliminate, back-substitute. *)
  let aug = Array.init m (fun i -> Array.append (Array.copy a.(i)) [| b.(i) |]) in
  let e, _, pivots = echelon aug in
  if List.length pivots < n
     || List.exists (fun (_, c) -> c >= n) pivots then
    failwith "Linalg.solve: singular matrix";
  let x = Array.make n Rat.zero in
  for i = n - 1 downto 0 do
    let s = ref e.(i).(n) in
    for j = i + 1 to n - 1 do
      s := Rat.sub !s (Rat.mul e.(i).(j) x.(j))
    done;
    x.(i) <- Rat.div !s e.(i).(i)
  done;
  x

let mat_vec a x =
  Array.map
    (fun row ->
       let s = ref Rat.zero in
       Array.iteri (fun j v -> s := Rat.add !s (Rat.mul v x.(j))) row;
       !s)
    a

let check_vandermonde xs b =
  if Array.length b <> Array.length xs then
    failwith "Linalg.check_vandermonde: dimension mismatch";
  Array.iteri
    (fun i x ->
       if Bigint.is_zero x then failwith "Linalg.check_vandermonde: zero node";
       for j = 0 to i - 1 do
         if Bigint.equal x xs.(j) then
           failwith "Linalg.check_vandermonde: repeated node"
       done)
    xs

let vandermonde_solve xs b =
  let n = Array.length xs in
  check_vandermonde xs b;
  (* Row i corresponds to exponent ℓ = i+1: a.(i).(j) = xs.(j)^(i+1). *)
  let a =
    Array.init n (fun i ->
        Array.init n (fun j -> Rat.of_bigint (Bigint.pow xs.(j) (i + 1))))
  in
  solve a (Array.map Rat.of_bigint b)

(* Σ_j c_j without solving for the c_j.  Q(t) = Π_j (x_j − t) = Σ_ℓ q_ℓ t^ℓ
   has q_0 = Π_j x_j ≠ 0, so P(t) = 1 − Q(t)/q_0 is 0 at 0 and 1 at
   every node: Σ_j c_j = Σ_j c_j P(x_j) = −(Σ_{ℓ≥1} q_ℓ b_ℓ) / q_0, where
   b_ℓ = Σ_j c_j x_j^ℓ is row ℓ − 1 of the system. *)
let vandermonde_sum xs b =
  let n = Array.length xs in
  check_vandermonde xs b;
  (* q.(l) is the coefficient of t^l, multiplied in one factor at a time *)
  let q = Array.make (n + 1) Bigint.zero in
  q.(0) <- Bigint.one;
  Array.iteri
    (fun i x ->
       for l = i + 1 downto 0 do
         let shifted = if l = 0 then Bigint.zero else q.(l - 1) in
         q.(l) <- Bigint.sub (Bigint.mul x q.(l)) shifted
       done)
    xs;
  let s = ref Bigint.zero in
  for l = 1 to n do
    s := Bigint.add !s (Bigint.mul q.(l) b.(l - 1))
  done;
  Rat.make (Bigint.neg !s) q.(0)
