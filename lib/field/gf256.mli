(** The binary field GF(2^8) with the AES reduction polynomial
    x^8 + x^4 + x^3 + x + 1 (0x11B).

    Used for byte-oriented sharing of long payloads (each byte of a secret
    is shared independently), where a 31-bit prime-field element per byte
    would waste bandwidth.  Multiplication goes through exp/log tables
    built once at module initialisation. *)

include Field_intf.S
