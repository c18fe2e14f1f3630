(** Modular arithmetic over {!Nat}. *)

val add : m:Nat.t -> Nat.t -> Nat.t -> Nat.t
(** [add ~m a b] is [(a + b) mod m]; inputs need not be reduced. *)

val sub : m:Nat.t -> Nat.t -> Nat.t -> Nat.t
(** [sub ~m a b] is [(a - b) mod m], always non-negative. *)

val mul : m:Nat.t -> Nat.t -> Nat.t -> Nat.t

val pow : m:Nat.t -> Nat.t -> Nat.t -> Nat.t
(** [pow ~m b e] is [b^e mod m] by left-to-right sliding windows
    over limb buffers allocated once per call. An odd [m] multiplies
    in Montgomery form ({!context} is built per call); an even [m]
    runs the same window loop with a [Nat.rem] multiply.
    [pow ~m b Nat.zero = Nat.one] (for [m > 1]); [pow ~m:Nat.one] is
    always zero. *)

(** {2 Precomputed odd moduli}

    Callers that exponentiate repeatedly modulo one odd [m] (the DSA
    and DH group prime) keep its Montgomery context, and a comb table
    for a fixed base, instead of rebuilding them per call. Contexts
    and tables are immutable and safe to share; every call allocates
    its own scratch. *)

type ctx
(** Montgomery context for an odd modulus [m] of [n] 26-bit limbs:
    [R = 2^(26n)], [-m^-1 mod 2^26] and [R^2 mod m]. *)

val context : Nat.t -> ctx
(** Raises [Invalid_argument] if the modulus is even. *)

val pow_ctx : ctx -> Nat.t -> Nat.t -> Nat.t
(** [pow_ctx (context m) b e] equals [pow ~m b e]. *)

val pow2 : ctx -> Nat.t -> Nat.t -> Nat.t -> Nat.t -> Nat.t
(** [pow2 (context m) b1 e1 b2 e2] is [b1^e1 * b2^e2 mod m] in one
    pass: both exponents share a single chain of squarings (Shamir's
    trick), each with its own sliding windows. *)

type fixed_base
(** A Lim-Lee comb table for one base: 256 precomputed residues. *)

val fixed_base : ctx -> Nat.t -> bits:int -> fixed_base
(** [fixed_base (context m) g ~bits] precomputes powers of [g] for
    exponents of up to [bits] bits (at least 1). *)

val pow_fixed : fixed_base -> Nat.t -> Nat.t
(** [pow_fixed t e] is [g^e mod m]. An exponent of at most [bits]
    bits costs about [bits/8] squarings and as many multiplications;
    a longer one falls back to {!pow_ctx}. *)

val gcd : Nat.t -> Nat.t -> Nat.t

val inv : m:Nat.t -> Nat.t -> Nat.t
(** [inv ~m a] is the multiplicative inverse of [a] modulo [m].
    Raises [Not_found] if [gcd a m <> 1]. *)
