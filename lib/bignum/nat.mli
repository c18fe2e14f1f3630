(** Arbitrary-precision natural numbers.

    Limbs are stored little-endian in base [2^26] so that double-limb
    products and long accumulations fit comfortably in OCaml's native
    63-bit integers. Values are always normalized (no high zero
    limbs); [zero] is the empty array. All operations are functional:
    inputs are never mutated. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** [of_int n] converts a non-negative [int]. Raises
    [Invalid_argument] if [n < 0]. *)

val to_int : t -> int
(** [to_int n] converts back to [int]. Raises [Failure] if the value
    does not fit. *)

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] is [a - b]. Raises [Invalid_argument] if [b > a]. *)

val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)]. Raises [Division_by_zero] if
    [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val bit : t -> int -> bool
(** [bit n i] is the [i]th bit of [n] (bit 0 is least significant). *)

val num_bits : t -> int
(** Number of significant bits; [num_bits zero = 0]. *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t

val succ : t -> t
val pred : t -> t

val is_even : t -> bool
val is_odd : t -> bool

val of_bytes_be : string -> t
(** Interpret a big-endian byte string as a natural number. Linear in
    the length, as are {!to_bytes_be}, {!of_hex} and {!to_hex}. *)

val to_bytes_be : ?len:int -> t -> string
(** Big-endian byte string, minimal length unless [len] pads with
    leading zeros. Raises [Invalid_argument] if the value needs more
    than [len] bytes. *)

val of_hex : string -> t
(** Parse a hexadecimal string (no [0x] prefix, case-insensitive).
    Raises [Invalid_argument] on non-hex input. *)

val to_hex : t -> string
(** Lowercase hexadecimal, minimal length, ["0"] for zero. *)

val of_decimal : string -> t
val to_decimal : t -> string

val pp : Format.formatter -> t -> unit
(** Prints the decimal representation. *)

(** {2 Limb buffers}

    The in-place kernels of {!Modarith} work on plain little-endian
    limb arrays; these convert at their boundary. *)

val limb_bits : int
(** Bits per limb: 26. *)

val num_limbs : t -> int

val to_limbs : len:int -> t -> int array
(** [to_limbs ~len n] is a fresh array of [len] limbs, zero-padded.
    Raises [Invalid_argument] if [n] needs more than [len] limbs. *)

val of_limbs : int array -> t
(** [of_limbs a] reads a little-endian limb array into a fresh value;
    [a] is neither retained nor mutated. Raises [Invalid_argument] if
    a limb is outside [[0, 2^limb_bits)]. *)
