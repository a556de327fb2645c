// Fixture: a correct guard.

#ifndef CRNET_GOOD_HH
#define CRNET_GOOD_HH
#endif // CRNET_GOOD_HH
