(** Exact linear algebra over {!Rat}.

    Drives the interpolation arguments of the paper: Lemma 22 and
    Observation 23 recover conjunctive-query answer counts from
    homomorphism counts by solving (Vandermonde-shaped) linear systems,
    and Lemma 40 uses multivariate polynomial interpolation.  All
    solves here are exact — no floating point. *)

type matrix = Rat.t array array

(** [solve a b] solves [a x = b] for a square, invertible [a] using
    Gaussian elimination with exact pivoting.
    @raise Failure when [a] is singular or dimensions mismatch. *)
val solve : matrix -> Rat.t array -> Rat.t array

(** [rank a] is the rank of [a]. *)
val rank : matrix -> int

(** [determinant a] is the determinant of the square matrix [a]. *)
val determinant : matrix -> Rat.t

(** [vandermonde_solve xs b] solves for coefficients [c] such that for
    every row [i], [sum_j c.(j) * xs.(j) ^ (i+1) = b.(i)].  This is
    exactly the system of Lemma 22 (equations indexed by the copy
    count [ℓ = i+1], unknowns indexed by extension-class sizes
    [xs.(j)]).  The [xs] must be pairwise distinct and non-zero.
    @raise Failure on repeated or zero nodes. *)
val vandermonde_solve : Bigint.t array -> Bigint.t array -> Rat.t array

(** [vandermonde_sum xs b] is [Σ_j c.(j)] for the solution [c] of
    {!vandermonde_solve}[ xs b], in [O(n²)] exact operations instead of
    an [O(n³)] elimination: with [Q(t) = Π_j (xs.(j) − t) = Σ_ℓ q_ℓ t^ℓ],
    the sum is [−(Σ_{ℓ≥1} q_ℓ · b.(ℓ−1)) / q_0].  Lemma 22 needs only
    this sum, the number of answers.
    @raise Failure on repeated or zero nodes. *)
val vandermonde_sum : Bigint.t array -> Bigint.t array -> Rat.t

(** [mat_vec a x] is the matrix-vector product. *)
val mat_vec : matrix -> Rat.t array -> Rat.t array
