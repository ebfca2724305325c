"""The group-order oracle's default size cap.

It is the default of both group_closure_order and the CLI's
group-order --cap.  It lives apart from covers so that the CLI can
build its parser without loading any arithmetic.
"""

# Largest |SL(2, q)| that group_closure_order searches unless told otherwise
DEFAULT_CLOSURE_CAP = 10**7
